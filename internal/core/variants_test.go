package core

import (
	"errors"
	"math/rand"
	"testing"

	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/sim"
)

// TestLogBase2 runs with base-2 logarithms: thresholds grow by 1/ln(2) ~
// 1.44x, more contenders, same safety invariant.
func TestLogBase2(t *testing.T) {
	g, err := graph.Clique(32, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.LogBase = 2
	pe, err := ResolveParams(32, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ResolveParams(32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p2.InterThreshold <= pe.InterThreshold || p2.Walks <= pe.Walks {
		t.Fatalf("base-2 thresholds should exceed base-e: %+v vs %+v", p2, pe)
	}
	res, err := Run(g, cfg, engine.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Leaders) > 1 {
		t.Fatalf("leaders = %v", res.Leaders)
	}
}

// TestTightScheduleStillSafe runs with a deliberately small TMult: stages
// may truncate information flow (more stale drops, possibly failed
// elections) but the at-most-one-leader invariant must survive.
func TestTightScheduleStillSafe(t *testing.T) {
	g, err := graph.RandomRegular(48, 4, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TMult = 0.25 // far below the paper's (25/16) c1
	for seed := int64(0); seed < 4; seed++ {
		res, err := Run(g, cfg, engine.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Leaders) > 1 {
			t.Fatalf("seed %d: multiple leaders %v under tight schedule", seed, res.Leaders)
		}
	}
}

// TestMaxRoundsError surfaces the engine's round cap as a wrapped error.
func TestMaxRoundsError(t *testing.T) {
	g, err := graph.Clique(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(g, DefaultConfig(), engine.Options{Seed: 1, MaxRounds: 3})
	if !errors.Is(err, sim.ErrMaxRounds) {
		t.Fatalf("want ErrMaxRounds, got %v", err)
	}
}

// TestLargerC2MoreWalks: the walk count and distinctness threshold scale
// with c2, and the run still elects.
func TestLargerC2MoreWalks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.C2 = 4
	p4, err := ResolveParams(64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ResolveParams(64, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p4.Walks != 2*p2.Walks && p4.Walks != 2*p2.Walks-1 && p4.Walks != 2*p2.Walks+1 {
		t.Fatalf("walks should roughly double: %d vs %d", p4.Walks, p2.Walks)
	}
	if p4.DistinctThreshold <= p2.DistinctThreshold {
		t.Fatal("distinctness threshold should grow with c2")
	}
	g, err := graph.Clique(32, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, cfg, engine.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Leaders) > 1 {
		t.Fatalf("leaders = %v", res.Leaders)
	}
}

// TestSuppressedPlusFailedStillTerminate: a mix of cap failures and winner
// suppression must always leave the run quiescent (Run returned) with
// every contender classified.
func TestMixedOutcomesTerminate(t *testing.T) {
	g, err := graph.Barbell(10, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxWalkLen = 32 // barbell mixing exceeds this: failures expected
	res, err := Run(g, cfg, engine.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stopped)+len(res.Suppressed)+len(res.Failed) != len(res.Contenders) {
		t.Fatalf("unclassified contenders: %+v", res)
	}
	if len(res.Leaders) > 1 {
		t.Fatalf("leaders = %v", res.Leaders)
	}
}
