package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"wcle/internal/baseline"
	"wcle/internal/broadcast"
	"wcle/internal/core"
	"wcle/internal/engine"
	"wcle/internal/protocol"
	"wcle/internal/sim"
	"wcle/internal/stats"
)

// e3Spec reproduces Lemma 1: the contender count concentrates in
// [3/4 c1 log n, 5/4 c1 log n]. Sampling only; no network needed (the
// algorithm's first coin flip). One trial = one sampled contender count.
func e3Spec() Spec {
	return Spec{
		ID:    "E3",
		Name:  "contender-concentration",
		Title: "Lemma 1: contender count concentration in [3/4 c1 ln n, 5/4 c1 ln n]",
		Claim: "Lemma 1 (Chernoff concentration of the contender count)",
		Preamble: "Everything downstream (both stopping thresholds) assumes the contender count lands in [3/4 c1 ln n, 5/4 c1 ln n] — a Chernoff bound, so the in-band probability should climb toward 1 as n grows. " +
			"This experiment samples only the algorithm's first coin flip; no network is needed.",
		FullTrials:  400,
		QuickTrials: 150,
		Points: func(cfg SuiteConfig) []Point {
			sizes := []int{256, 1024, 4096, 16384}
			if cfg.Quick {
				sizes = []int{256, 1024}
			}
			var out []Point
			for _, n := range cfg.capSizes(sizes) {
				out = append(out, Point{Key: fmt.Sprintf("n-%d", n), N: n})
			}
			return out
		},
		Trial: func(cfg SuiteConfig, pt Point, setup interface{}, seed int64) (Metrics, error) {
			c := core.DefaultConfig()
			p, err := core.ResolveParams(pt.N, c)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(seed))
			x := 0
			for v := 0; v < pt.N; v++ {
				if rng.Float64() < p.ContenderProb {
					x++
				}
			}
			mu := c.C1 * p.LogN
			inBand := b2f(float64(x) >= 0.75*mu && float64(x) <= 1.25*mu)
			return Metrics{"x": float64(x), "in_band": inBand}, nil
		},
		Render: renderE3,
	}
}

func renderE3(cfg SuiteConfig, data []PointData) (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "Lemma 1: contender count concentration in [3/4 c1 ln n, 5/4 c1 ln n]",
		Columns: []string{"n", "E[X] = c1 ln n", "band", "mean X", "P[X in band]", "95% CI"},
	}
	c := core.DefaultConfig()
	for _, pd := range data {
		p, err := core.ResolveParams(pd.Point.N, c)
		if err != nil {
			return nil, err
		}
		mu := c.C1 * p.LogN
		lo, hi := 0.75*mu, 1.25*mu
		trials := len(pd.Trials)
		inBand := pd.Count("in_band")
		ciLo, ciHi, err := stats.BinomialCI(inBand, trials, 1.96)
		if err != nil {
			return nil, err
		}
		t.AddRow(d(pd.Point.N), f1(mu), "["+f1(lo)+", "+f1(hi)+"]",
			f1(pd.Mean("x")), f3(float64(inBand)/float64(trials)),
			"["+f3(ciLo)+", "+f3(ciHi)+"]")
	}
	t.AddNote("Lemma 1 is a Chernoff bound: the in-band probability must increase toward 1 as n grows (with c1=%.0f).", c.C1)
	t.Plot = ASCIIPlot("P[X in band] vs n", "n", "P[in band]", true, false,
		familySeries(data, func(pd PointData) float64 {
			return pd.Sum("in_band") / float64(len(pd.Trials))
		}))
	return t, nil
}

// e4Spec reproduces Lemma 11: exactly one leader w.h.p., and the safety
// half (never more than one) as a hard invariant.
func e4Spec() Spec {
	return Spec{
		ID:    "E4",
		Name:  "unique-leader",
		Title: "Lemma 11: unique leader w.h.p. (and never more than one)",
		Claim: "Lemma 11 (exactly one leader w.h.p.; at most one always)",
		Preamble: "The correctness claim itself. Lemma 11 promises exactly one leader with high probability; the safety half (never more than one) should hold in every single run, " +
			"while zero-leader runs are the finite-n probability tail and must stay rare. Expect the multi column to be identically 0.",
		FullTrials:  10,
		QuickTrials: 3,
		Points: func(cfg SuiteConfig) []Point {
			cases := []Point{
				{Key: "clique-64", Family: "clique", N: 64},
				{Key: "hypercube-64", Family: "hypercube", N: 64},
				{Key: "rr8-128", Family: "rr8", N: 128},
			}
			var out []Point
			for _, pt := range cases {
				if cfg.MaxN > 0 && pt.N > cfg.MaxN {
					continue
				}
				out = append(out, pt)
			}
			return out
		},
		Trial: func(cfg SuiteConfig, pt Point, setup interface{}, seed int64) (Metrics, error) {
			g, err := buildFamily(pt.Family, pt.N, sim.DeriveSeed(seed, 0xA))
			if err != nil {
				return nil, err
			}
			res, err := core.Run(g, core.DefaultConfig(),
				engine.Options{Seed: sim.DeriveSeed(seed, 0xB), LeanMetrics: true})
			if err != nil {
				return nil, err
			}
			return Metrics{
				"one":        b2f(len(res.Leaders) == 1),
				"zero":       b2f(len(res.Leaders) == 0),
				"multi":      b2f(len(res.Leaders) > 1),
				"contenders": float64(len(res.Contenders)),
			}, nil
		},
		Render: renderE4,
	}
}

func renderE4(cfg SuiteConfig, data []PointData) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "Lemma 11: unique leader w.h.p. (and never more than one)",
		Columns: []string{"family", "n", "trials", "exactly one", "zero", "multi", "mean contenders"},
	}
	for _, pd := range data {
		t.AddRow(pd.Point.Family, d(pd.Point.N), d(len(pd.Trials)),
			d(pd.Count("one")), d(pd.Count("zero")), d(pd.Count("multi")),
			f1(pd.Mean("contenders")))
	}
	t.AddNote("multi must be 0 in every row: with the FINAL-latch and inactive-exchange clarifications on (the defaults), at-most-one-leader held in every run we ever executed. Zero-leader runs are the finite-n tail Lemma 1 bounds (see E14's c1 sweep).")
	return t, nil
}

// e7Spec reproduces Corollary 14 and the comparison against the Omega(m)
// flooding regime of [24]: explicit election = implicit election +
// push-pull broadcast of the leader id.
func e7Spec() Spec {
	return Spec{
		ID:    "E7",
		Name:  "explicit-election",
		Title: "Corollary 14: explicit election (implicit + push-pull) vs the Omega(m) FloodMax baseline",
		Claim: "Corollary 14 (explicit election) vs the Omega(m) flooding regime of [24]",
		Preamble: "Corollary 14 upgrades the implicit election to an explicit one (every node learns the leader's id) by appending a push-pull broadcast, at no asymptotic cost. " +
			"Expected shapes on expanders: explicit total ~ the E1 message bound plus Theta(n log log n) gossip, versus FloodMax's Omega(m) flooding — the fitted exponents separate even where absolute counts favor FloodMax at small n.",
		FullTrials:  3,
		QuickTrials: 1,
		Points: func(cfg SuiteConfig) []Point {
			sizes := []int{128, 256, 512}
			if cfg.Quick {
				sizes = []int{64, 128}
			}
			var out []Point
			for _, n := range cfg.capSizes(sizes) {
				out = append(out, Point{Key: fmt.Sprintf("rr8-%d", n), Family: "rr8", N: n})
			}
			return out
		},
		Trial: func(cfg SuiteConfig, pt Point, setup interface{}, seed int64) (Metrics, error) {
			g, err := buildFamily("rr8", pt.N, sim.DeriveSeed(seed, 0xA))
			if err != nil {
				return nil, err
			}
			res, err := core.Run(g, core.DefaultConfig(),
				engine.Options{Seed: sim.DeriveSeed(seed, 0xB), LeanMetrics: true})
			if err != nil {
				return nil, err
			}
			source := 0
			var rumor uint64 = 12345
			if len(res.Leaders) > 0 {
				source = res.Leaders[0]
				rumor = uint64(res.LeaderIDs[0])
			}
			// First pass finds the completion round; the second is truncated
			// there, so its message count is the cost to full coverage.
			bcSeed := sim.DeriveSeed(seed, 0xC)
			probe, err := broadcast.PushPull(g, source, protocol.ID(rumor), bcSeed, 40*g.N(), false)
			if err != nil {
				return nil, err
			}
			horizon := probe.CompletionRound
			if horizon <= 0 {
				horizon = 40 * g.N()
			}
			bc, err := broadcast.PushPull(g, source, protocol.ID(rumor), bcSeed, horizon, false)
			if err != nil {
				return nil, err
			}
			flood, err := baseline.FloodMax(g, sim.DeriveSeed(seed, 0xD), 0)
			if err != nil {
				return nil, err
			}
			return Metrics{
				"m":          float64(g.M()),
				"impl_msgs":  float64(res.Metrics.Messages),
				"bc_msgs":    float64(bc.Metrics.Messages),
				"bc_rounds":  float64(bc.Metrics.FinalRound),
				"explicit":   float64(res.Metrics.Messages + bc.Metrics.Messages),
				"flood_msgs": float64(flood.Metrics.Messages),
			}, nil
		},
		Render: renderE7,
	}
}

func renderE7(cfg SuiteConfig, data []PointData) (*Table, error) {
	t := &Table{
		ID:    "E7",
		Title: "Corollary 14: explicit election (implicit + push-pull) vs the Omega(m) FloodMax baseline",
		Columns: []string{"n", "m", "implicit msgs", "broadcast msgs", "bcast rounds",
			"explicit total", "floodmax msgs"},
	}
	var ns, explicitMsgs, floodMsgs []float64
	for _, pd := range data {
		implMed, bcMed := pd.Median("impl_msgs"), pd.Median("bc_msgs")
		// Sum the medians (not the median of per-trial sums) so the row
		// stays internally consistent: explicit = implicit + broadcast.
		explicit := implMed + bcMed
		flood := pd.Median("flood_msgs")
		t.AddRow(d(pd.Point.N), d(int(pd.First("m"))),
			d64(int64(implMed)), d64(int64(bcMed)),
			d(int(pd.Median("bc_rounds"))), d64(int64(explicit)), d64(int64(flood)))
		ns = append(ns, float64(pd.Point.N))
		explicitMsgs = append(explicitMsgs, explicit)
		floodMsgs = append(floodMsgs, flood)
	}
	if len(ns) >= 2 {
		fe, err1 := stats.LogLogFit(ns, explicitMsgs)
		ff, err2 := stats.LogLogFit(ns, floodMsgs)
		if err1 == nil && err2 == nil {
			t.AddNote("fitted growth: explicit ~ n^%.2f, floodmax ~ n^%.2f. The paper's win is asymptotic: at laptop scales the polylog constants dominate and FloodMax is cheaper in absolute terms; the smaller fitted exponent is the Theorem 13 shape. Extrapolated crossover: n ~ %.1g.",
				fe.Slope, ff.Slope, crossover(fe, ff))
		}
	}
	t.AddNote("Corollary 14's claim that election time dominates broadcast time shows in 'bcast rounds' being tiny next to the election schedule (E2).")
	t.Plot = ASCIIPlot("explicit vs floodmax messages", "n", "messages", true, true, []Series{
		{Name: "explicit", Mark: 'o', Xs: ns, Ys: explicitMsgs},
		{Name: "floodmax", Mark: 'x', Xs: ns, Ys: floodMsgs},
	})
	return t, nil
}

// crossover solves a1 + b1 x = a2 + b2 x in log space and returns e^x.
func crossover(f1, f2 stats.Fit) float64 {
	if f1.Slope == f2.Slope {
		return math.Inf(1)
	}
	return math.Exp((f2.Intercept - f1.Intercept) / (f1.Slope - f2.Slope))
}

// e14Variants are the ablation variants, in render order.
var e14Variants = []struct {
	name string
	mod  func(*core.Config)
}{
	{"default", func(*core.Config) {}},
	{"no-inactive-exchange", func(c *core.Config) { c.DisableInactiveExchange = true }},
	{"no-distinctness", func(c *core.Config) { c.DisableDistinctness = true }},
	{"no-piggyback", func(c *core.Config) { c.DisablePiggyback = true }},
	{"c1=2", func(c *core.Config) { c.C1 = 2 }},
	{"c1=10", func(c *core.Config) { c.C1 = 10 }},
}

// e14Spec quantifies the design choices: the inactive-exchange
// clarification, the distinctness property, winner piggybacking, and the
// "sufficiently large c1" requirement.
func e14Spec() Spec {
	return Spec{
		ID:    "E14",
		Name:  "ablations",
		Title: "Ablations: correctness clarifications and the c1 constant (rr8, n=96)",
		Claim: "Design ablations (Claims 9/10 relay chain, Lemma 1's constant)",
		Preamble: "Each row switches off one realization choice the paper's proofs lean on — the inactive-exchange relay of Claims 9/10, the distinctness property, winner piggybacking — or moves the \"sufficiently large\" c1 constant. " +
			"Expected shape: defaults elect one leader; c1=2 starves the intersection threshold (zero leaders appear); the paper-literal no-inactive-exchange variant is where multiple leaders can in principle arise.",
		FullTrials:  6,
		QuickTrials: 2,
		Points: func(cfg SuiteConfig) []Point {
			if cfg.MaxN > 0 && cfg.MaxN < 96 {
				return nil
			}
			var out []Point
			for _, v := range e14Variants {
				out = append(out, Point{Key: v.name, Label: v.name, Family: "rr8", N: 96})
			}
			return out
		},
		Trial: func(cfg SuiteConfig, pt Point, setup interface{}, seed int64) (Metrics, error) {
			g, err := buildFamily("rr8", pt.N, sim.DeriveSeed(seed, 0xA))
			if err != nil {
				return nil, err
			}
			c := core.DefaultConfig()
			found := false
			for _, v := range e14Variants {
				if v.name == pt.Label {
					v.mod(&c)
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("experiments: unknown ablation variant %q", pt.Label)
			}
			res, err := core.Run(g, c,
				engine.Options{Seed: sim.DeriveSeed(seed, 0xB), LeanMetrics: true})
			if err != nil {
				return nil, err
			}
			return Metrics{
				"one":    b2f(len(res.Leaders) == 1),
				"zero":   b2f(len(res.Leaders) == 0),
				"multi":  b2f(len(res.Leaders) > 1),
				"failed": float64(len(res.Failed)),
				"msgs":   float64(res.Metrics.Messages),
			}, nil
		},
		Render: renderE14,
	}
}

func renderE14(cfg SuiteConfig, data []PointData) (*Table, error) {
	t := &Table{
		ID:      "E14",
		Title:   "Ablations: correctness clarifications and the c1 constant (rr8, n=96)",
		Columns: []string{"variant", "trials", "one leader", "zero", "multi", "failed contenders", "mean msgs"},
	}
	for _, pd := range data {
		t.AddRow(pd.Point.Label, d(len(pd.Trials)),
			d(pd.Count("one")), d(pd.Count("zero")), d(pd.Count("multi")),
			d(pd.Count("failed")), f1(pd.Mean("msgs")))
	}
	t.AddNote("c1=2 exposes the 'sufficiently large constant' requirement of Lemma 1: the intersection threshold becomes unreachable in some runs (failed contenders, zero leaders). no-inactive-exchange reproduces the paper-literal reading whose Claim 9/10 relay chain can break; multi > 0 there is the gap made visible (it may need many trials to materialize).")
	return t, nil
}
