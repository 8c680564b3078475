package engine_test

import (
	"reflect"
	"testing"

	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/sim"
)

// defended builds a committee-wrapped protocol through the registry path
// (engine.New with Config.Defend), the same path the cluster JobSpec and
// electd take.
func defended(t *testing.T, name string, cfg engine.Config) engine.Protocol {
	t.Helper()
	cfg.Defend = true
	p, err := engine.New(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCommitteeNameAndSlots(t *testing.T) {
	p := defended(t, engine.PushPull, engine.Config{})
	if p.Name() != "pushpull+committee" {
		t.Fatalf("wrapped name = %q", p.Name())
	}
	inner, err := engine.New(engine.PushPull, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Slots(), inner.Slots()) {
		t.Fatalf("defense changed the output contract: %v vs %v", p.Slots(), inner.Slots())
	}
}

func TestCommitteeConfigValidated(t *testing.T) {
	if _, err := engine.New(engine.PushPull, engine.Config{
		Defend: true, DefendCopies: 2, DefendQuorum: 3,
	}); err == nil {
		t.Fatal("quorum > copies should fail")
	}
	if _, err := engine.WithCommittee(nil, engine.CommitteeConfig{Copies: 300}); err == nil {
		t.Fatal("copies > 255 should fail (the copy count crosses the wire as one byte)")
	}
}

// TestCommitteeTransparentWithoutAdversary: on a fault-free plane the
// defense must not change what the protocol computes — every node still
// gets informed, slots are the inner slots — only the message bill and
// the round count grow.
func TestCommitteeTransparentWithoutAdversary(t *testing.T) {
	g, err := graph.Clique(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{Source: 3, Rumor: 9, Horizon: 300}
	res, err := engine.Run(defended(t, engine.PushPull, cfg), g, engine.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v, o := range res.Outputs {
		if o[0] != 1 {
			t.Fatalf("node %d not informed under the defense on a perfect plane", v)
		}
	}
}

// TestCommitteeBFSTreeJoinsEveryone: a structural protocol (bfstree)
// survives the wrapper too — the captured-send path must preserve join
// semantics, not just gossip.
func TestCommitteeBFSTreeJoinsEveryone(t *testing.T) {
	g, err := graph.Torus2D(4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(defended(t, engine.BFSTree, engine.Config{Root: 5}), g, engine.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for v, o := range res.Outputs {
		if o[0] != 1 {
			t.Fatalf("node %d did not join the defended BFS tree", v)
		}
	}
}

// TestCommitteeDefendsAgainstByzantine is the defense's reason to exist:
// under an active adversary mutating every adversarial send, a defended
// pushpull from an honest source still informs every honest node — the
// quorum cross-check rejects the forgeries (adversarial copies almost
// never agree byte-for-byte) while honest repetition passes.
func TestCommitteeDefendsAgainstByzantine(t *testing.T) {
	g, err := graph.Clique(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	adversaries := []int{1, 6, 11}
	byz := &sim.Byzantine{Nodes: adversaries}
	cfg := engine.Config{Source: 3, Rumor: 9, Horizon: 400}
	res, err := engine.Run(defended(t, engine.PushPull, cfg), g, engine.Options{Seed: 8, Fault: byz})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Mutated == 0 {
		t.Fatal("adversary mutated nothing; the run defended against no attack")
	}
	bad := map[int]bool{}
	for _, v := range adversaries {
		bad[v] = true
	}
	for v, o := range res.Outputs {
		if !bad[v] && o[0] != 1 {
			t.Fatalf("honest node %d not informed under the defense (outputs %v)", v, o)
		}
	}
}

// TestCommitteeDeterministicAcrossEngines: a defended Byzantine run is
// still one deterministic function of the seed, identical on a replay —
// the contract every plane in this repo is held to.
func TestCommitteeDeterministicAcrossEngines(t *testing.T) {
	g, err := graph.Torus2D(4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *engine.Result {
		t.Helper()
		res, err := engine.Run(
			defended(t, engine.PushPull, engine.Config{Source: 0, Rumor: 5, Horizon: 400}),
			g,
			engine.Options{
				Seed:       11,
				CountSends: true,
				Fault:      &sim.Byzantine{Frac: 0.2},
			})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, rerun := run(), run()
	if !reflect.DeepEqual(seq, rerun) {
		t.Fatalf("defended byzantine run not replay-deterministic:\n%+v\n%+v", seq, rerun)
	}
}

// TestUndefendedPushPullStillRuns pins the contrast the E23 tournament
// renders: without the defense the same adversary's forged rumors reach
// protocol logic (mutations deliver), and the run still terminates
// deterministically — corruption, not crash.
func TestUndefendedPushPullStillRuns(t *testing.T) {
	g, err := graph.Clique(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := engine.New(engine.PushPull, engine.Config{Source: 3, Rumor: 9, Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(p, g, engine.Options{Seed: 8, Fault: &sim.Byzantine{Frac: 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Mutated == 0 {
		t.Fatal("expected mutations on the undefended run")
	}
	res2, err := engine.Run(p, g, engine.Options{Seed: 8, Fault: &sim.Byzantine{Frac: 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Fatal("undefended byzantine run not replay-deterministic")
	}
}
