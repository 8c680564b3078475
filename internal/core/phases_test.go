package core

import (
	"math/rand"
	"testing"

	"wcle/internal/engine"
	"wcle/internal/graph"
)

func TestPhaseObserverAccounting(t *testing.T) {
	g, err := graph.RandomRegular(48, 4, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	obs, err := NewPhaseObserver(g.N(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, cfg, engine.Options{Seed: 3, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if obs.Total() != res.Metrics.Messages {
		t.Fatalf("phase totals %d != metrics %d", obs.Total(), res.Metrics.Messages)
	}
	if obs.UsedPhases() < res.PhasesUsed {
		t.Fatalf("used phases %d < contender phases %d", obs.UsedPhases(), res.PhasesUsed)
	}
	// Per-kind splits add up per phase.
	for p := range obs.Messages {
		var sum int64
		for _, c := range obs.Kinds[p] {
			sum += c
		}
		if sum != obs.Messages[p] {
			t.Fatalf("phase %d kind split %d != %d", p, sum, obs.Messages[p])
		}
		if obs.Messages[p] > 0 && obs.Bits[p] <= 0 {
			t.Fatalf("phase %d has messages but no bits", p)
		}
	}
	// The geometric-series shape: the last active phase should carry a
	// large share of the traffic (at least as much as the first).
	last := obs.UsedPhases() - 1
	if last > 0 && obs.Messages[last] < obs.Messages[0] {
		t.Logf("note: last phase %d lighter than phase 0 (%d vs %d) — acceptable but unusual",
			last, obs.Messages[last], obs.Messages[0])
	}
}

func TestPhaseObserverValidation(t *testing.T) {
	if _, err := NewPhaseObserver(1, DefaultConfig()); err == nil {
		t.Fatal("n=1 should fail")
	}
	if _, err := NewPhaseObserver(16, Config{}); err == nil {
		t.Fatal("zero config should fail")
	}
}

func TestPhaseObserverEmptyRun(t *testing.T) {
	g, err := graph.Clique(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ForcedContenders = []int{}
	obs, err := NewPhaseObserver(g.N(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, cfg, engine.Options{Seed: 1, Observer: obs}); err != nil {
		t.Fatal(err)
	}
	if obs.Total() != 0 || obs.UsedPhases() != 0 {
		t.Fatalf("empty run recorded traffic: %d/%d", obs.Total(), obs.UsedPhases())
	}
}
