package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"wcle/internal/algo"
	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/serve"
	"wcle/internal/sim"
)

// superviseEvents starts a supervision that forwards every event into a
// buffered channel.
func superviseEvents(t *testing.T, c *Coordinator, spec JobSpec) (*Supervision, chan Event) {
	t.Helper()
	events := make(chan Event, 64)
	sup, err := c.Supervise(SuperviseConfig{
		Spec:    spec,
		OnEvent: func(ev Event) { events <- ev },
	})
	if err != nil {
		t.Fatal(err)
	}
	return sup, events
}

// awaitEvent blocks for the next event of the wanted kind, failing the
// test on timeout. Events of other kinds are reported and skipped.
func awaitEvent(t *testing.T, events chan Event, kind EventKind) Event {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case ev := <-events:
			t.Logf("supervision event: %+v", ev)
			if ev.Kind == kind {
				return ev
			}
		case <-deadline:
			t.Fatalf("no %s event within 30s", kind)
		}
	}
}

// TestSupervisionReelectsAfterCrash is the tentpole scenario: kill the
// shard hosting the leader mid-lease and the supervisor must detect the
// death, quiesce the survivors, shrink the membership, and elect exactly
// one new leader — then fold the shard back in when it rejoins.
func TestSupervisionReelectsAfterCrash(t *testing.T) {
	local, err := StartLocal(3)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	spec := JobSpec{Graph: serve.GraphSpec{Family: "clique", N: 12, Seed: 3}, Algorithm: algo.KPPRT, Seed: 9}
	sup, events := superviseEvents(t, local.Coord, spec)

	lease1 := awaitEvent(t, events, EventLease)
	if lease1.Epoch != 1 {
		t.Fatalf("first lease at epoch %d, want 1", lease1.Epoch)
	}
	// Epoch 1 must satisfy the keystone contract: same leader as the
	// in-process sim at the same seed.
	want, _ := electInProcess(t, spec)
	reigns := sup.Reigns()
	if len(reigns) != 1 {
		t.Fatalf("expected 1 reign after the first lease, got %d", len(reigns))
	}
	assertOutcomesMatch(t, want, &reigns[0].Result.Outcome)
	if reigns[0].Leader != want.Leaders[0] {
		t.Fatalf("reign leader %d, in-process leader %d", reigns[0].Leader, want.Leaders[0])
	}

	// Kill the leader's shard (or shard 1 when the coordinator hosts the
	// leader — the coordinator cannot die, but any membership change must
	// still trigger a re-election).
	victim := lease1.LeaderShard
	if victim == 0 {
		victim = 1
	}
	if err := local.Kill(victim); err != nil {
		t.Fatal(err)
	}
	death := awaitEvent(t, events, EventDeath)
	if death.Shard != victim {
		t.Fatalf("declared shard %d dead, killed %d", death.Shard, victim)
	}
	lease2 := awaitEvent(t, events, EventLease)
	if lease2.Epoch <= 1 {
		t.Fatalf("re-election did not advance the epoch: %d", lease2.Epoch)
	}
	reigns = sup.Reigns()
	second := reigns[len(reigns)-1]
	if len(second.Result.Outcome.Leaders) != 1 {
		t.Fatalf("re-election produced %d leaders", len(second.Result.Outcome.Leaders))
	}
	if second.LeaderShard == victim {
		t.Fatalf("new leader hosted on the dead shard %d", victim)
	}
	lo, hi := shardLo(12, 3, victim), shardLo(12, 3, victim+1)
	for _, m := range second.Members {
		if m >= lo && m < hi {
			t.Fatalf("membership %v still contains node %d of dead shard %d", second.Members, m, victim)
		}
	}
	// The survivor reign is itself deterministic: it must equal an
	// in-process election over the induced survivor subgraph at the
	// derived epoch seed.
	g0, err := spec.Graph.Build()
	if err != nil {
		t.Fatal(err)
	}
	gi, err := graph.Induced(g0, second.Members)
	if err != nil {
		t.Fatal(err)
	}
	p, err := algo.New(spec.Algorithm, spec.config())
	if err != nil {
		t.Fatal(err)
	}
	if second.Attempts != 1 || second.Seed != sim.DeriveSeed(spec.Seed, second.Epoch) {
		t.Fatalf("deterministic backend needed %d attempts, reign seed %d", second.Attempts, second.Seed)
	}
	ref, _, err := algo.Run(p, gi, engine.Options{Seed: second.Seed})
	if err != nil {
		t.Fatal(err)
	}
	assertOutcomesMatch(t, ref, &second.Result.Outcome)

	// Bring the shard back: the supervisor folds it in and re-elects over
	// the full graph again.
	if err := local.Restart(victim); err != nil {
		t.Fatal(err)
	}
	rejoin := awaitEvent(t, events, EventRejoin)
	if rejoin.Shard != victim {
		t.Fatalf("rejoin event for shard %d, restarted %d", rejoin.Shard, victim)
	}
	lease3 := awaitEvent(t, events, EventLease)
	if lease3.Epoch <= lease2.Epoch {
		t.Fatalf("rejoin did not advance the epoch: %d after %d", lease3.Epoch, lease2.Epoch)
	}
	reigns = sup.Reigns()
	third := reigns[len(reigns)-1]
	if third.Members != nil {
		t.Fatalf("post-rejoin reign should span the full graph, got members %v", third.Members)
	}
	if len(third.Result.Outcome.Leaders) != 1 {
		t.Fatalf("post-rejoin election produced %d leaders", len(third.Result.Outcome.Leaders))
	}

	sup.Stop()
	if _, err := sup.Wait(); err != nil {
		t.Fatalf("supervision ended with error: %v", err)
	}
	// The quiesced session stays usable for ad-hoc elections.
	res, err := local.Run(spec)
	if err != nil {
		t.Fatalf("post-supervision election: %v", err)
	}
	assertOutcomesMatch(t, want, &res.Outcome)
}

// TestSupervisionRejoinThenByzantineJob: a worker that rejoins a
// supervised session gets the same peer directory as an original member,
// so once the supervision stops, an adversarial job runs on every shard
// and matches the in-process sim forgery for forgery.
func TestSupervisionRejoinThenByzantineJob(t *testing.T) {
	local, err := StartLocal(3)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	g := serve.GraphSpec{Family: "clique", N: 12, Seed: 3}
	sup, events := superviseEvents(t, local.Coord, JobSpec{Graph: g, Algorithm: algo.KPPRT, Seed: 9})
	awaitEvent(t, events, EventLease)
	if err := local.Kill(1); err != nil {
		t.Fatal(err)
	}
	awaitEvent(t, events, EventDeath)
	awaitEvent(t, events, EventLease)
	if err := local.Restart(1); err != nil {
		t.Fatal(err)
	}
	awaitEvent(t, events, EventRejoin)
	awaitEvent(t, events, EventLease)
	sup.Stop()
	if _, err := sup.Wait(); err != nil {
		t.Fatalf("supervision ended with error: %v", err)
	}

	spec := JobSpec{Graph: g, Algorithm: algo.FloodMax, Seed: 1, Fault: serve.FaultSpec{Byz: 0.25}}
	got, err := local.Run(spec)
	if err != nil {
		t.Fatalf("byzantine job after a rejoin: %v", err)
	}
	want, _ := electInProcess(t, spec)
	// The fields of the Byzantine parity contract (algotest.ByzantineParityOn).
	parity := func(o *algo.Outcome) string {
		return fmt.Sprint(o.Leaders, o.LeaderIDs, o.Success, o.Explicit, o.Contenders, o.LeaderRound, o.Rounds,
			o.Metrics.Messages, o.Metrics.Bits, o.Metrics.Deliveries, o.Metrics.Mutated)
	}
	if parity(&got.Outcome) != parity(want) {
		t.Fatalf("cluster run diverged from the in-process sim:\n  cluster:    %s\n  in-process: %s", parity(&got.Outcome), parity(want))
	}
	if got.Outcome.Metrics.Mutated == 0 {
		t.Fatal("the byzantine job mutated no send")
	}
}

// TestSupervisionGatesAdHocElections: while a supervision owns the
// session, Run refuses; after Stop it serves again.
func TestSupervisionGatesAdHocElections(t *testing.T) {
	local, err := StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	spec := JobSpec{Graph: serve.GraphSpec{Family: "clique", N: 8, Seed: 1}, Algorithm: algo.KPPRT, Seed: 4}
	sup, events := superviseEvents(t, local.Coord, spec)
	awaitEvent(t, events, EventLease)
	if _, err := local.Run(spec); err == nil || !strings.Contains(err.Error(), "supervision") {
		t.Fatalf("ad-hoc election under supervision should be refused, got %v", err)
	}
	if _, err := local.Coord.Supervise(SuperviseConfig{Spec: spec}); err == nil {
		t.Fatal("second concurrent supervision accepted")
	}
	sup.Stop()
	if _, err := sup.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := local.Run(spec); err != nil {
		t.Fatalf("session unusable after supervision stopped: %v", err)
	}
}
