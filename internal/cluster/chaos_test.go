package cluster

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"wcle/internal/algo"
	"wcle/internal/engine"
	"wcle/internal/serve"
)

// TestChaosSoak hammers a supervised session with a random kill/restart
// schedule: worker shards die abruptly (connections severed mid-frame)
// and come back at arbitrary moments. The supervisor must hold the line
// the whole way — every reign it grants has exactly one leader — and the
// whole apparatus must tear down without leaking a goroutine.
// TestChaosByzantineJobs is the Byzantine-plane chaos pass: a rapid
// sequence of adversarial jobs — sampled and pinned adversary sets,
// composed with omission planes, defended and undefended, in both job
// spellings (Algorithm and Protocol) — over one 3-shard loopback session,
// each job immediately replayed and required to reproduce
// byte-identically. This
// deliberately runs in -short: it is the -race coverage of the mutation
// path (per-sender rng streams, the claim codec, the merge) over real
// TCP, cheap enough for every CI run.
func TestChaosByzantineJobs(t *testing.T) {
	before := runtime.NumGoroutine()
	local, err := StartLocal(3)
	if err != nil {
		t.Fatal(err)
	}
	g := serve.GraphSpec{Family: "clique", N: 12, Seed: 3}
	jobs := []struct {
		name    string
		spec    JobSpec
		mutates bool
	}{
		{"floodmax-byz", JobSpec{Graph: g, Algorithm: algo.FloodMax, Seed: 1,
			Fault: serve.FaultSpec{Byz: 0.25}}, true},
		{"kpprt-pinned+drop", JobSpec{Graph: g, Algorithm: algo.KPPRT, Seed: 2,
			Fault: serve.FaultSpec{ByzNodes: []int{2, 7}, Drop: 0.05}}, true},
		{"pushpull-byz", JobSpec{Graph: g, Protocol: engine.PushPull,
			Engine: engine.Config{Rumor: 5, Horizon: 60}, Seed: 3,
			Fault: serve.FaultSpec{Byz: 0.25}}, true},
		{"pushpull-defended", JobSpec{Graph: g, Protocol: engine.PushPull,
			Engine: engine.Config{Rumor: 5, Horizon: 300, Defend: true}, Seed: 4,
			Fault: serve.FaultSpec{ByzNodes: []int{5}}}, true},
		{"floodmax-clean", JobSpec{Graph: g, Algorithm: algo.FloodMax, Seed: 5}, false},
	}
	for _, j := range jobs {
		first, err := local.Run(j.spec)
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		if got := first.Outcome.Metrics.Mutated > 0; got != j.mutates {
			t.Fatalf("%s: mutated=%d, want mutations=%v", j.name, first.Outcome.Metrics.Mutated, j.mutates)
		}
		replay, err := local.Run(j.spec)
		if err != nil {
			t.Fatalf("%s replay: %v", j.name, err)
		}
		if !reflect.DeepEqual(first, replay) {
			t.Fatalf("%s: byzantine job not replay-deterministic over TCP:\n%+v\n%+v", j.name, first, replay)
		}
	}
	if err := local.Close(); err != nil {
		t.Fatalf("cluster shutdown: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before the pass, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized kill/restart soak over loopback TCP; skipped in -short mode")
	}
	before := runtime.NumGoroutine()

	local, err := StartLocal(3)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Graph: serve.GraphSpec{Family: "clique", N: 12, Seed: 3}, Algorithm: algo.KPPRT, Seed: 5}
	sup, events := superviseEvents(t, local.Coord, spec)
	awaitEvent(t, events, EventLease)

	// Fixed-seed schedule: which worker dies, and how deep into the
	// steady lease state the kill lands.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 4; i++ {
		victim := 1 + rng.Intn(2)
		time.Sleep(time.Duration(rng.Intn(80)) * time.Millisecond)
		if err := local.Kill(victim); err != nil {
			t.Fatalf("cycle %d: killing shard %d: %v", i, victim, err)
		}
		awaitEvent(t, events, EventDeath)
		awaitEvent(t, events, EventLease)

		time.Sleep(time.Duration(rng.Intn(80)) * time.Millisecond)
		if err := local.Restart(victim); err != nil {
			t.Fatalf("cycle %d: restarting shard %d: %v", i, victim, err)
		}
		awaitEvent(t, events, EventRejoin)
		awaitEvent(t, events, EventLease)
	}

	sup.Stop()
	reigns, err := sup.Wait()
	if err != nil {
		t.Fatalf("supervision ended with error: %v", err)
	}
	// 1 initial + 2 per cycle (post-death, post-rejoin).
	if want := 1 + 2*4; len(reigns) != want {
		t.Fatalf("got %d reigns, want %d", len(reigns), want)
	}
	for _, r := range reigns {
		if len(r.Result.Outcome.Leaders) != 1 {
			t.Fatalf("epoch %d elected %d leaders", r.Epoch, len(r.Result.Outcome.Leaders))
		}
		if r.Epoch > 1 && r.RecoverWall <= 0 {
			t.Fatalf("epoch %d has no recovery wall time", r.Epoch)
		}
	}
	if err := local.Close(); err != nil {
		t.Fatalf("cluster shutdown: %v", err)
	}

	// Everything the soak spun up — workers, monitors, heartbeats, accept
	// loops — must be gone. Allow a moment for exits to land.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before the soak, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(100 * time.Millisecond)
	}
}
