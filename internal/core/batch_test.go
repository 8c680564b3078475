package core_test

import (
	"strings"
	"testing"

	"wcle/internal/algo"
	"wcle/internal/core"
	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/sim"
)

// TestRunManyRejectsSharedFault pins the shared-fault guard for batches of
// the paper's election: a Base.Fault shared across shard goroutines is
// refused with a pointer to NewFault, and the same plane built per trial
// through NewFault runs and tallies every trial's outcome.
func TestRunManyRejectsSharedFault(t *testing.T) {
	g, err := graph.Clique(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := algo.New(algo.GilbertRS18, algo.Config{Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	_, err = algo.RunMany(g, a, engine.BatchOptions{
		Base:   engine.Options{Seed: 1, Fault: &sim.Drop{P: 0.1}},
		Trials: 2,
	})
	if err == nil || !strings.Contains(err.Error(), "NewFault") {
		t.Fatalf("shared Base.Fault not rejected: %v", err)
	}
	// The same plane through NewFault (fresh instance per trial) is fine.
	res, err := algo.RunMany(g, a, engine.BatchOptions{
		Base:     engine.Options{Seed: 1, LeanMetrics: true},
		Trials:   2,
		NewFault: func(int) sim.FaultPlane { return &sim.Drop{P: 0.1} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 2 || res.One+res.Zero+res.Multi != 2 {
		t.Fatalf("batch outcome inconsistent: %+v", res)
	}
}
