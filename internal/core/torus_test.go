package core

import (
	"testing"

	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/spectral"
)

// TestTorusElection exercises the algorithm on a slowly mixing but still
// tractable family (tmix = Theta(n)): guess-and-double must track the much
// larger mixing time and still elect exactly one leader.
func TestTorusElection(t *testing.T) {
	if testing.Short() {
		t.Skip("torus elections take seconds; skipped in -short mode")
	}
	for _, side := range []int{8, 12} {
		g, err := graph.Torus2D(side, side, nil)
		if err != nil {
			t.Fatal(err)
		}
		tmix, err := spectral.MixingTimeSampled(g, spectral.DefaultEps(g.N()), 1_000_000, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(g, DefaultConfig(), engine.Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Leaders) > 1 {
			t.Fatalf("torus %dx%d: multiple leaders %v", side, side, res.Leaders)
		}
		// Guess-and-double must not run past O(tmix): the largest final
		// guess stays within a generous constant of the measured tmix.
		for _, v := range res.Stopped {
			if res.FinalTu[v] > 16*tmix {
				t.Fatalf("torus %dx%d: final tu %d >> tmix %d", side, side, res.FinalTu[v], tmix)
			}
		}
		if len(res.Stopped) == 0 {
			t.Fatalf("torus %dx%d: nobody stopped (tmix=%d)", side, side, tmix)
		}
	}
}
