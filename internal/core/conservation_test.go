package core

import (
	"math/rand"
	"testing"

	"wcle/internal/engine"
	"wcle/internal/graph"
)

// TestTokenConservation is the strongest end-to-end invariant: every walk
// token a contender launches in its last phase must be registered as a
// proxy completion somewhere in the network — nothing lost in queues,
// batching, splitting, or tree resets.
func TestTokenConservation(t *testing.T) {
	graphs := []*graph.Graph{}
	if g, err := graph.Clique(24, nil); err == nil {
		graphs = append(graphs, g)
	} else {
		t.Fatal(err)
	}
	if g, err := graph.RandomRegular(48, 4, rand.New(rand.NewSource(4))); err == nil {
		graphs = append(graphs, g)
	} else {
		t.Fatal(err)
	}
	if g, err := graph.Hypercube(5, nil); err == nil {
		graphs = append(graphs, g)
	} else {
		t.Fatal(err)
	}
	for _, g := range graphs {
		for seed := int64(0); seed < 3; seed++ {
			res, err := Run(g, DefaultConfig(), engine.Options{Seed: seed})
			if err != nil {
				t.Fatalf("%s: %v", g.Name(), err)
			}
			for _, v := range res.Contenders {
				got := res.ProxyTotals[v]
				if got != res.Walks {
					t.Fatalf("%s seed %d: contender %d registered %d proxies, launched %d walks",
						g.Name(), seed, v, got, res.Walks)
				}
			}
		}
	}
}

// TestDistinctnessAccounting cross-checks the distinctness statistic the
// contenders aggregated in-protocol against the network-wide ground truth.
func TestDistinctnessAccounting(t *testing.T) {
	g, err := graph.RandomRegular(64, 6, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, DefaultConfig(), engine.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Every stopped contender reported dSum >= distT in-protocol; the
	// ground truth distinct count for its final phase must corroborate it.
	for _, v := range res.Stopped {
		if res.DistinctProxies[v] < res.DistinctThreshold {
			t.Fatalf("contender %d stopped with ground-truth distinct %d < threshold %d",
				v, res.DistinctProxies[v], res.DistinctThreshold)
		}
	}
	// Distinct proxies can never exceed total proxies.
	for v, p := range res.ProxyTotals {
		if res.DistinctProxies[v] > p {
			t.Fatalf("contender %d: distinct %d > total %d", v, res.DistinctProxies[v], p)
		}
	}
}

// TestConservationUnderBudget: with drops, conservation is allowed to fail
// (tokens vanish at the budget wall) but accounting must stay non-negative
// and bounded by the launch count.
func TestConservationUnderBudget(t *testing.T) {
	g, err := graph.Clique(24, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, DefaultConfig(), engine.Options{Seed: 5, Budget: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for v, p := range res.ProxyTotals {
		if p < 0 || p > res.Walks {
			t.Fatalf("contender %d: proxies %d outside [0, %d]", v, p, res.Walks)
		}
	}
}
