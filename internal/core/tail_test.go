package core

import (
	"math"
	"testing"

	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/stats"
)

// binomialCDF returns P[Binomial(n, p) <= k].
func binomialCDF(n int, p float64, k int) float64 {
	var sum float64
	for i := 0; i <= k && i <= n; i++ {
		lgN, _ := math.Lgamma(float64(n + 1))
		lgI, _ := math.Lgamma(float64(i + 1))
		lgR, _ := math.Lgamma(float64(n - i + 1))
		sum += math.Exp(lgN - lgI - lgR + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p))
	}
	return sum
}

// TestZeroLeaderTail pins the default election's finite-n failure mode. A
// contender stops only once it is adjacent to at least τ = InterThreshold
// other contenders, so with X ≤ τ contenders none can stop: every one
// doubles its walk up to the cap and the run ends with no leader. That is
// decided at round 0 by the contender draw, so the zero-leader rate is
// the binomial tail P[X ≤ τ] (about 8% at n = 64 with c1 = 6), on any
// graph.
func TestZeroLeaderTail(t *testing.T) {
	if testing.Short() {
		t.Skip("240 default elections, some running every phase to the walk cap")
	}
	const n, runs = 64, 120
	params, err := ResolveParams(n, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tail := binomialCDF(n, params.ContenderProb, params.InterThreshold)
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"rr8-64", expander(t, n, 8, 1)},
		{"clique-64", clique(t, n)},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			zero := 0
			for seed := 0; seed < runs; seed++ {
				res, err := Run(fam.g, DefaultConfig(), engine.Options{Seed: int64(seed)})
				if err != nil {
					t.Fatal(err)
				}
				x, tau := len(res.Contenders), res.InterThreshold
				if len(res.Leaders) > 1 {
					t.Errorf("seed %d: %d leaders", seed, len(res.Leaders))
				}
				if (len(res.Leaders) == 0) != (x <= tau) {
					t.Errorf("seed %d: %d leaders with X = %d, τ = %d; want none exactly when X ≤ τ",
						seed, len(res.Leaders), x, tau)
				}
				if len(res.Leaders) == 0 {
					zero++
				}
			}
			if zero == 0 {
				t.Fatalf("no leaderless run in %d; the X ≤ τ tail should show", runs)
			}
			lo, hi, err := stats.BinomialCI(zero, runs, 1.96)
			if err != nil {
				t.Fatal(err)
			}
			if tail < lo || tail > hi {
				t.Errorf("exact tail P[X ≤ %d] = %.4f outside the Wilson interval [%.4f, %.4f] of %d/%d leaderless runs",
					params.InterThreshold, tail, lo, hi, zero, runs)
			}
			t.Logf("%d/%d leaderless; exact tail %.4f in [%.4f, %.4f]", zero, runs, tail, lo, hi)
		})
	}
}
