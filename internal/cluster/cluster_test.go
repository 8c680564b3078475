package cluster

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"wcle/internal/algo"
	"wcle/internal/engine"
	"wcle/internal/serve"
)

// electInProcess runs the reference in-process election for a spec, with
// the same per-node send accounting the cluster collects.
func electInProcess(t *testing.T, spec JobSpec) (*algo.Outcome, []int64) {
	t.Helper()
	g, err := spec.Graph.Build()
	if err != nil {
		t.Fatalf("building %+v: %v", spec.Graph, err)
	}
	a, err := spec.backend()
	if err != nil {
		t.Fatal(err)
	}
	counter := &engine.SendCounter{Counts: make([]int64, g.N())}
	out, err := a.Run(g, engine.Options{Seed: spec.Seed, DebugFrom: spec.DebugFrom, Observer: counter})
	if err != nil {
		t.Fatalf("in-process %s: %v", a.Name(), err)
	}
	return out, counter.Counts
}

// TestClusterMatchesInProcessSim is the keystone invariant of the cluster
// runtime: for the same seed, an election over a 3-shard TCP cluster
// produces the identical leader and identical per-node message counts as
// the in-process sim, for every registered backend. The wire is just
// another delivery plane.
func TestClusterMatchesInProcessSim(t *testing.T) {
	graphs := []serve.GraphSpec{
		{Family: "clique", N: 18, Seed: 5},
		{Family: "rr", N: 24, D: 6, Seed: 7},
	}
	local, err := StartLocal(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := local.Close(); err != nil {
			t.Errorf("cluster shutdown: %v", err)
		}
	}()
	for _, gs := range graphs {
		for _, backend := range algo.Names() {
			t.Run(fmt.Sprintf("%s-%d/%s", gs.Family, gs.N, backend), func(t *testing.T) {
				spec := JobSpec{Graph: gs, Algorithm: backend, Seed: 41}
				want, wantCounts := electInProcess(t, spec)
				got, err := local.Elect(spec)
				if err != nil {
					t.Fatalf("cluster elect: %v", err)
				}
				assertOutcomesMatch(t, want, &got.Outcome)
				if got.Shards != 3 {
					t.Errorf("result reports %d shards, want 3", got.Shards)
				}
				if len(got.PerNodeMessages) != len(wantCounts) {
					t.Fatalf("per-node counts for %d nodes, want %d", len(got.PerNodeMessages), len(wantCounts))
				}
				for v := range wantCounts {
					if got.PerNodeMessages[v] != wantCounts[v] {
						t.Fatalf("node %d sent %d messages on the cluster, %d in process",
							v, got.PerNodeMessages[v], wantCounts[v])
					}
				}
				if got.Wire.Barriers == 0 || got.Wire.Frames == 0 || got.Wire.Bytes == 0 {
					t.Errorf("wire stats empty: %+v (did the election actually cross the wire?)", got.Wire)
				}
			})
		}
	}
}

// assertOutcomesMatch compares the backend-independent outcome fields that
// must be identical between delivery planes.
func assertOutcomesMatch(t *testing.T, want, got *algo.Outcome) {
	t.Helper()
	if got.Algorithm != want.Algorithm {
		t.Errorf("algorithm %q, want %q", got.Algorithm, want.Algorithm)
	}
	if fmt.Sprint(got.Leaders) != fmt.Sprint(want.Leaders) {
		t.Errorf("leaders %v, want %v", got.Leaders, want.Leaders)
	}
	if fmt.Sprint(got.LeaderIDs) != fmt.Sprint(want.LeaderIDs) {
		t.Errorf("leader ids %v, want %v", got.LeaderIDs, want.LeaderIDs)
	}
	if got.Success != want.Success {
		t.Errorf("success %v, want %v", got.Success, want.Success)
	}
	if got.Explicit != want.Explicit {
		t.Errorf("explicit %v, want %v", got.Explicit, want.Explicit)
	}
	if got.Contenders != want.Contenders {
		t.Errorf("contenders %d, want %d", got.Contenders, want.Contenders)
	}
	if got.LeaderRound != want.LeaderRound {
		t.Errorf("leader round %d, want %d", got.LeaderRound, want.LeaderRound)
	}
	if got.Rounds != want.Rounds {
		t.Errorf("rounds %d, want %d", got.Rounds, want.Rounds)
	}
	if got.Metrics.Messages != want.Metrics.Messages {
		t.Errorf("messages %d, want %d", got.Metrics.Messages, want.Metrics.Messages)
	}
	if got.Metrics.Bits != want.Metrics.Bits {
		t.Errorf("bits %d, want %d", got.Metrics.Bits, want.Metrics.Bits)
	}
	if got.Metrics.Deliveries != want.Metrics.Deliveries {
		t.Errorf("deliveries %d, want %d", got.Metrics.Deliveries, want.Metrics.Deliveries)
	}
	if got.Metrics.FinalRound != want.Metrics.FinalRound {
		t.Errorf("final round %d, want %d", got.Metrics.FinalRound, want.Metrics.FinalRound)
	}
	for k, v := range want.Metrics.ByKind {
		if got.Metrics.ByKind[k] != v {
			t.Errorf("messages of kind %q: %d, want %d", k, got.Metrics.ByKind[k], v)
		}
	}
}

// TestClusterSessionServesManyJobs reuses one session across jobs and
// checks a repeated seed replays identically.
func TestClusterSessionServesManyJobs(t *testing.T) {
	local, err := StartLocal(3)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	spec := JobSpec{Graph: serve.GraphSpec{Family: "clique", N: 12, Seed: 3}, Algorithm: algo.KPPRT, Seed: 9}
	first, err := local.Elect(spec)
	if err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Seed = 10
	if _, err := local.Elect(other); err != nil {
		t.Fatalf("second job: %v", err)
	}
	replay, err := local.Elect(spec)
	if err != nil {
		t.Fatalf("replay job: %v", err)
	}
	assertOutcomesMatch(t, &first.Outcome, &replay.Outcome)
	for v := range first.PerNodeMessages {
		if first.PerNodeMessages[v] != replay.PerNodeMessages[v] {
			t.Fatalf("node %d: replay sent %d, first run %d", v, replay.PerNodeMessages[v], first.PerNodeMessages[v])
		}
	}
}

// TestClusterRejectsBadJobs: validation failures fail the job, not the
// session, and name what the caller got wrong.
func TestClusterRejectsBadJobs(t *testing.T) {
	local, err := StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	good := JobSpec{Graph: serve.GraphSpec{Family: "clique", N: 8, Seed: 1}, Seed: 4}

	_, err = local.Elect(JobSpec{Graph: good.Graph, Algorithm: "bogus", Seed: 4})
	if err == nil || !strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), algo.KPPRT) {
		t.Fatalf("unknown algorithm error should name it and list the registry; got %v", err)
	}
	_, err = local.Elect(JobSpec{Graph: good.Graph, Protocol: "bogus", Seed: 4})
	if err == nil || !strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), engine.PushPull) {
		t.Fatalf("unknown protocol error should name it and list the registry; got %v", err)
	}
	if _, err := local.Elect(JobSpec{Graph: serve.GraphSpec{Family: "nope"}, Seed: 4}); err == nil {
		t.Fatal("bad graph family accepted")
	}
	if _, err := local.Elect(JobSpec{Graph: serve.GraphSpec{Family: "clique", N: 1, Seed: 1}, Seed: 4}); err == nil {
		t.Fatal("1-node graph split across 2 shards accepted")
	}
	if _, err := local.Elect(good); err != nil {
		t.Fatalf("session should survive rejected jobs: %v", err)
	}
}

// TestClusterOverTCPClient covers the submit/outcome client path.
func TestClusterOverTCPClient(t *testing.T) {
	local, err := StartLocal(3)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	spec := JobSpec{Graph: serve.GraphSpec{Family: "clique", N: 15, Seed: 2}, Algorithm: algo.FloodMax, Seed: 6}
	want, _ := electInProcess(t, spec)
	got, err := Submit(local.Coord.Addr(), spec)
	if err != nil {
		t.Fatal(err)
	}
	assertOutcomesMatch(t, want, &got.Outcome)
	if !got.Outcome.Explicit {
		t.Error("floodmax under perfect delivery should merge as an explicit election")
	}
}

// TestOwnerOf pins the contiguous balanced partition: ranges tile [0, n)
// and the inverse map agrees.
func TestOwnerOf(t *testing.T) {
	for _, n := range []int{2, 3, 7, 16, 100, 101} {
		for shards := 1; shards <= 7 && shards <= n; shards++ {
			total := 0
			for s := 0; s < shards; s++ {
				lo, hi := shardLo(n, shards, s), shardLo(n, shards, s+1)
				if hi < lo {
					t.Fatalf("n=%d shards=%d shard %d: range [%d,%d)", n, shards, s, lo, hi)
				}
				total += hi - lo
				for v := lo; v < hi; v++ {
					if got := ownerOf(n, shards, v); got != s {
						t.Fatalf("n=%d shards=%d: node %d owned by %d, expected %d", n, shards, v, got, s)
					}
				}
			}
			if total != n {
				t.Fatalf("n=%d shards=%d: ranges cover %d nodes", n, shards, total)
			}
		}
	}
}

// TestStrayJoinAfterAssembly: a duplicate hello to an assembled
// coordinator (an operator re-running a worker, a port probe) must be
// refused without judging the session — and never double-close the ready
// channel (which used to panic the whole coordinator).
func TestStrayJoinAfterAssembly(t *testing.T) {
	local, err := StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	spec := JobSpec{Graph: serve.GraphSpec{Family: "clique", N: 8, Seed: 1}, Seed: 4}
	if _, err := local.Elect(spec); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", local.Coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeJSONFrame(conn, frameHello, helloMsg{Proto: proto, Shard: 1, Addr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	// The stray conn gets dropped...
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readFrame(conn); err == nil {
		t.Fatal("stray join was answered instead of refused")
	}
	// ...and the session keeps serving.
	if _, err := local.Elect(spec); err != nil {
		t.Fatalf("session broken by a stray join: %v", err)
	}
}

// TestJoinRejectsOtherProtocolVersion: a worker built from another
// wire-protocol version fails setup with an error naming both versions,
// instead of joining a session it cannot speak.
func TestJoinRejectsOtherProtocolVersion(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Listen: "127.0.0.1:0", Shards: 2, ReadyTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Shutdown()
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeJSONFrame(conn, frameHello, helloMsg{Proto: 1, Shard: 1, Addr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	_, err = coord.Elect(JobSpec{Graph: serve.GraphSpec{Family: "clique", N: 8, Seed: 1}, Seed: 4})
	want := fmt.Sprintf("speaks protocol 1, want %d", proto)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("setup with a protocol-1 worker: got %v, want an error containing %q", err, want)
	}
}

// TestDataFrameChunking forces every round's traffic through tiny data
// chunks: a message-heavy round must cross as a frame sequence (never
// outgrowing the frame cap) and still satisfy the determinism contract.
func TestDataFrameChunking(t *testing.T) {
	old := dataChunkBytes
	dataChunkBytes = 64
	defer func() { dataChunkBytes = old }()
	local, err := StartLocal(3)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	spec := JobSpec{Graph: serve.GraphSpec{Family: "clique", N: 18, Seed: 5}, Algorithm: algo.FloodMax, Seed: 41}
	want, wantCounts := electInProcess(t, spec)
	got, err := local.Elect(spec)
	if err != nil {
		t.Fatal(err)
	}
	assertOutcomesMatch(t, want, &got.Outcome)
	for v := range wantCounts {
		if got.PerNodeMessages[v] != wantCounts[v] {
			t.Fatalf("node %d sent %d on the cluster, %d in process", v, got.PerNodeMessages[v], wantCounts[v])
		}
	}
	// Merged Barriers sums the per-shard counters (3 per global round
	// here), and an unchunked barrier costs shards*(shards-1) = 6 data
	// frames — i.e. Barriers*2 after merging. More means chunking split
	// the heavy rounds.
	globalFloor := got.Wire.Barriers * 2
	if got.Wire.Frames <= globalFloor {
		t.Fatalf("expected chunked rounds to multiply frames (%d frames, floor %d)",
			got.Wire.Frames, globalFloor)
	}
}
