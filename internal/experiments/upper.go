package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"wcle/internal/core"
	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/protocol"
	"wcle/internal/sim"
	"wcle/internal/spectral"
	"wcle/internal/stats"
)

// famSizes is one upper-bound family's size sweep.
type famSizes struct {
	family string
	sizes  []int
}

// gridFamilies returns the upper-bound graph families and sizes for the
// regime. The grid is measured once (experiment E1) and rendered by
// E1/E2/E5/E13.
func gridFamilies(cfg SuiteConfig) []famSizes {
	var fams []famSizes
	if cfg.Quick {
		fams = []famSizes{
			{"clique", []int{32, 64}},
			{"hypercube", []int{32, 64}},
			{"rr8", []int{64, 128}},
		}
	} else {
		fams = []famSizes{
			{"clique", []int{64, 128, 256}},
			{"hypercube", []int{64, 128, 256}},
			{"rr8", []int{64, 128, 256, 512, 1024}},
			// Tori mix in Theta(n) — a genuinely different tmix growth that
			// exercises Theorem 13's tmix-dependence, not just its
			// n-dependence.
			{"torus", []int{64, 144, 256}},
		}
	}
	out := make([]famSizes, 0, len(fams))
	for _, f := range fams {
		if sizes := cfg.capSizes(f.sizes); len(sizes) > 0 {
			out = append(out, famSizes{f.family, sizes})
		}
	}
	return out
}

// gridPoints enumerates the grid's measurement points.
func gridPoints(cfg SuiteConfig) []Point {
	var out []Point
	for _, fam := range gridFamilies(cfg) {
		for _, n := range fam.sizes {
			out = append(out, Point{
				Key:    fmt.Sprintf("%s-%d", fam.family, n),
				Family: fam.family,
				N:      n,
			})
		}
	}
	return out
}

// buildFamily constructs one graph of a family at size n.
func buildFamily(family string, n int, seed int64) (*graph.Graph, error) {
	switch family {
	case "clique":
		return graph.Clique(n, rand.New(rand.NewSource(seed)))
	case "hypercube":
		dim := 0
		for 1<<dim < n {
			dim++
		}
		if 1<<dim != n {
			return nil, fmt.Errorf("experiments: hypercube size %d not a power of two", n)
		}
		return graph.Hypercube(dim, rand.New(rand.NewSource(seed)))
	case "rr8":
		return graph.RandomRegular(n, 8, rand.New(rand.NewSource(seed)))
	case "cycle":
		return graph.Cycle(n, rand.New(rand.NewSource(seed)))
	case "torus":
		side := int(math.Round(math.Sqrt(float64(n))))
		return graph.Torus2D(side, side, rand.New(rand.NewSource(seed)))
	default:
		return nil, fmt.Errorf("experiments: unknown family %q", family)
	}
}

// measuredTmix returns the sampled mixing time (exact on vertex-transitive
// families).
func measuredTmix(g *graph.Graph) (int, error) {
	starts := []int{0}
	if g.N() > 3 {
		starts = append(starts, g.N()/3, 2*g.N()/3)
	}
	return spectral.MixingTimeSampled(g, spectral.DefaultEps(g.N()), 40_000_000, starts)
}

// gridSetup holds the per-point state shared by a point's trials: the
// graph and its measured mixing time (both expensive, computed once).
type gridSetup struct {
	g    *graph.Graph
	tmix int
}

func gridSetupFn(cfg SuiteConfig, pt Point, seed int64) (interface{}, error) {
	g, err := buildFamily(pt.Family, pt.N, seed)
	if err != nil {
		return nil, err
	}
	tmix, err := measuredTmix(g)
	if err != nil {
		return nil, err
	}
	return &gridSetup{g: g, tmix: tmix}, nil
}

// gridTrial runs one election of the paper's algorithm on the point's
// graph — and, on the rr8 expander series, one run of the known-tmix
// baseline of [25] (fixed walk length 2*tmix) for E13's comparison.
func gridTrial(cfg SuiteConfig, pt Point, setup interface{}, seed int64) (Metrics, error) {
	gs := setup.(*gridSetup)
	res, err := core.Run(gs.g, core.DefaultConfig(),
		engine.Options{Seed: seed, LeanMetrics: true})
	if err != nil {
		return nil, err
	}
	leaderRound := float64(res.Rounds)
	if res.LeaderRound >= 0 {
		leaderRound = float64(res.LeaderRound)
	}
	m := Metrics{
		"m":            float64(gs.g.M()),
		"tmix":         float64(gs.tmix),
		"msgs":         float64(res.Metrics.Messages),
		"bits":         float64(res.Metrics.Bits),
		"rounds":       float64(res.Rounds),
		"leader_round": leaderRound,
		"success":      b2f(res.Success),
		"contenders":   float64(len(res.Contenders)),
		"phases":       float64(res.PhasesUsed),
	}
	if len(res.Stopped) > 0 {
		tus := make([]float64, 0, len(res.Stopped))
		for _, v := range res.Stopped {
			tus = append(tus, float64(res.FinalTu[v]))
		}
		med, err := stats.Quantile(tus, 0.5)
		if err != nil {
			return nil, err
		}
		m["tu_med"] = med
	}
	if pt.Family == "rr8" {
		cfgB := core.DefaultConfig()
		cfgB.FixedWalkLen = 2 * gs.tmix
		base, err := core.Run(gs.g, cfgB,
			engine.Options{Seed: sim.DeriveSeed(seed, 1), LeanMetrics: true})
		if err != nil {
			return nil, err
		}
		baseRound := float64(base.Rounds)
		if base.LeaderRound >= 0 {
			baseRound = float64(base.LeaderRound)
		}
		m["base_msgs"] = float64(base.Metrics.Messages)
		m["base_rounds"] = baseRound
		m["base_success"] = b2f(base.Success)
	}
	return m, nil
}

// thm13Messages is the Theorem 13 message reference sqrt(n) ln^{7/2} n tmix.
func thm13Messages(n, tmix int) float64 {
	ln := math.Log(float64(n))
	return math.Sqrt(float64(n)) * math.Pow(ln, 3.5) * float64(tmix)
}

// thm13Time is the Theorem 13 time reference tmix ln^2 n.
func thm13Time(n, tmix int) float64 {
	ln := math.Log(float64(n))
	return float64(tmix) * ln * ln
}

// fitExponent fits y ~ n^b for one family's series of points.
func fitExponent(data []PointData, family string, y func(PointData) float64) (float64, error) {
	var xs, ys []float64
	for _, pd := range data {
		if pd.Point.Family != family {
			continue
		}
		v := y(pd)
		if math.IsNaN(v) {
			continue
		}
		xs = append(xs, float64(pd.Point.N))
		ys = append(ys, v)
	}
	if len(xs) < 2 {
		return math.NaN(), nil
	}
	f, err := stats.LogLogFit(xs, ys)
	if err != nil {
		return 0, err
	}
	return f.Slope, nil
}

// e1Spec measures the upper-bound grid and renders Theorem 13's message
// bound. E2/E5/E13 are views over the same data.
func e1Spec() Spec {
	return Spec{
		ID:    "E1",
		Name:  "message-scaling",
		Title: "Theorem 13 (messages): CONGEST messages vs sqrt(n) ln^{7/2} n * tmix",
		Claim: "Theorem 13 (message complexity O(sqrt(n) log^{7/2} n * tmix))",
		Preamble: "The headline upper bound. Theorem 13 says the algorithm elects with O(sqrt(n) log^{7/2} n * tmix) messages — sublinear in the edge count m on well-connected graphs. " +
			"This grid runs the full algorithm across four families whose mixing times grow differently (cliques and hypercubes mix in O(log n)-ish time, tori in Theta(n)); the msgs/ref column divides the measured count by the theorem's reference, so a bounded (non-growing) ratio within a family is the claimed shape, and the fitted per-family exponent of the normalized series should stay at or below the theorem's 0.5.",
		FullTrials:  3,
		QuickTrials: 1,
		Points:      gridPoints,
		Setup:       gridSetupFn,
		Trial:       gridTrial,
		Render:      renderE1,
	}
}

func renderE1(cfg SuiteConfig, data []PointData) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "Theorem 13 (messages): CONGEST messages vs sqrt(n) ln^{7/2} n * tmix",
		Columns: []string{"family", "n", "m", "tmix", "median messages", "msgs/ref",
			"msgs/m", "elected"},
	}
	for _, pd := range data {
		tmix := int(pd.First("tmix"))
		mEdges := pd.First("m")
		ref := thm13Messages(pd.Point.N, tmix)
		med := pd.Median("msgs")
		t.AddRow(pd.Point.Family, d(pd.Point.N), d(int(mEdges)), d(tmix),
			d64(int64(med)), f3(med/ref), f1(med/mEdges),
			elected(pd.Count("success"), len(pd.Trials)))
	}
	for _, fam := range gridFamilies(cfg) {
		// Theorem 13 predicts messages/(ln^{7/2} n * tmix) ~ sqrt(n), i.e.
		// a fitted exponent near 0.5 for the normalized series.
		b, err := fitExponent(data, fam.family, func(pd PointData) float64 {
			ln := math.Log(float64(pd.Point.N))
			return pd.Median("msgs") / (math.Pow(ln, 3.5) * pd.First("tmix"))
		})
		if err != nil {
			return nil, err
		}
		t.AddNote("%s: fitted msgs/(ln^{7/2} n * tmix) ~ n^%.2f. Theorem 13 is an upper bound: exponent <= 0.5 confirms it (0.5 would be tight; lower means the per-edge filtering beats the paper's worst-case congestion log, which its O~ absorbs).", fam.family, b)
	}
	t.AddNote("msgs/ref bounded (non-growing) across n within a family is the Theorem 13 shape; absolute constants are implementation-specific. msgs/m falls as graphs get denser — the sublinearity claim is against m.")
	t.Plot = ASCIIPlot("median CONGEST messages vs n", "n", "messages", true, true,
		familySeries(data, func(pd PointData) float64 { return pd.Median("msgs") }))
	return t, nil
}

// e2Spec renders Theorem 13's time bound from the E1 grid.
func e2Spec() Spec {
	return Spec{
		ID:    "E2",
		Name:  "time-scaling",
		Title: "Theorem 13 (time): rounds to election vs tmix ln^2 n",
		Claim: "Theorem 13 (round complexity O(tmix log^2 n))",
		Preamble: "The time half of Theorem 13: a leader emerges within O(tmix log^2 n) rounds. A view over the E1 grid's trials — no elections of its own — " +
			"dividing the measured leader round by tmix ln^2 n; a bounded ratio per family is the claim, with step jumps of up to 2x expected because guess-and-double quantizes the stopping phase.",
		DataFrom: "E1",
		Render:   renderE2,
	}
}

func renderE2(cfg SuiteConfig, data []PointData) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "Theorem 13 (time): rounds to election vs tmix ln^2 n",
		Columns: []string{"family", "n", "tmix", "median leader round", "rounds/ref"},
	}
	for _, pd := range data {
		tmix := int(pd.First("tmix"))
		med := pd.Median("leader_round")
		t.AddRow(pd.Point.Family, d(pd.Point.N), d(tmix), d64(int64(med)),
			f1(med/thm13Time(pd.Point.N, tmix)))
	}
	t.AddNote("rounds/ref bounded across n within a family reproduces the O(tmix log^2 n) time shape; the constant includes the schedule multiplier TMult = (25/16) c1, and jumps by up to 2x between rows because guess-and-double quantizes the stopping phase.")
	t.Plot = ASCIIPlot("median leader round vs n", "n", "rounds", true, true,
		familySeries(data, func(pd PointData) float64 { return pd.Median("leader_round") }))
	return t, nil
}

// e5Spec renders the guess-and-double walk lengths from the E1 grid.
func e5Spec() Spec {
	return Spec{
		ID:    "E5",
		Name:  "guess-and-double",
		Title: "Lemmas 3/6: final guess-and-double walk length vs measured tmix",
		Claim: "Lemmas 3/6 (guess-and-double settles at Theta(tmix))",
		Preamble: "The paper's central trick is electing without knowing tmix: contenders double a walk-length guess until the stopping properties hold, and Lemmas 3/6 promise they settle at Theta(tmix). " +
			"Another view over the E1 grid: the final guess tu, divided by the independently measured tmix, should be a bounded constant (at most 2x overshoot by doubling) across families whose tmix differs by orders of magnitude.",
		DataFrom: "E1",
		Render:   renderE5,
	}
}

func renderE5(cfg SuiteConfig, data []PointData) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Lemmas 3/6: final guess-and-double walk length vs measured tmix",
		Columns: []string{"family", "n", "tmix", "median final tu", "tu/tmix", "phases"},
	}
	for _, pd := range data {
		tmix := pd.First("tmix")
		phases := 0
		if a, ok := pd.Agg("phases"); ok {
			phases = int(a.Max)
		}
		med := pd.Median("tu_med")
		if math.IsNaN(med) {
			t.AddRow(pd.Point.Family, d(pd.Point.N), d(int(tmix)), "-", "-", d(phases))
			continue
		}
		t.AddRow(pd.Point.Family, d(pd.Point.N), d(int(tmix)), f1(med), f2(med/tmix), d(phases))
	}
	t.AddNote("Lemma 3 guarantees stopping once tu >= c3 tmix; guess-and-double overshoots by at most 2x. Contenders often stop below tmix because the properties only need near-uniform proxy spread, not full mixing (the paper's criteria are sufficient, not necessary). 'median final tu' is the median over trials of each trial's median stopped-contender walk length.")
	return t, nil
}

// e13Spec renders the known-tmix baseline comparison from the E1 grid
// (the baseline runs ride along on the grid's rr8 trials).
func e13Spec() Spec {
	return Spec{
		ID:    "E13",
		Name:  "known-tmix-baseline",
		Title: "Known-tmix baseline [25] vs guess-and-double (price of not knowing tmix)",
		Claim: "Kutten et al. [25] comparison (the assumption the paper removes)",
		Preamble: "Kutten et al. [25] elect with similar complexity but assume every node knows tmix; the paper removes that assumption, paying (in the worst case) a constant factor. " +
			"The E1 expander trials carry a paired baseline run with the walk length fixed at 2*tmix; the message ratio measures the actual price of not knowing tmix — expected O(1), and in practice below 1 because adaptive stopping quits before full mixing.",
		DataFrom: "E1",
		Render:   renderE13,
	}
}

func renderE13(cfg SuiteConfig, data []PointData) (*Table, error) {
	t := &Table{
		ID:      "E13",
		Title:   "Known-tmix baseline [25] vs guess-and-double (price of not knowing tmix)",
		Columns: []string{"n", "tmix", "ours msgs", "[25] msgs", "msg ratio", "ours rounds", "[25] rounds", "both elect"},
	}
	for _, pd := range data {
		if pd.Point.Family != "rr8" {
			continue
		}
		ourMsgs := pd.Median("msgs")
		baseMsgs := pd.Median("base_msgs")
		t.AddRow(d(pd.Point.N), d(int(pd.First("tmix"))),
			d64(int64(ourMsgs)), d64(int64(baseMsgs)), f2(ourMsgs/baseMsgs),
			d64(int64(pd.Median("leader_round"))), d64(int64(pd.Median("base_rounds"))),
			fmt.Sprintf("%d+%d/%d", pd.Count("success"), pd.Count("base_success"), len(pd.Trials)))
	}
	t.AddNote("The baseline assumes tmix is known network-wide (the assumption the paper removes) and walks the full 2*tmix. Measured msg ratios below 1 show guess-and-double actually beats the oracle here: the stopping properties are satisfied before full mixing (see E5), so the adaptive algorithm quits with shorter walks while the oracle pays 2*tmix regardless. The paper's worst-case constant-factor overhead is an upper bound; adaptivity wins on these families.")
	return t, nil
}

// e6Spec compares the two message-size regimes of Lemma 12.
func e6Spec() Spec {
	return Spec{
		ID:    "E6",
		Name:  "message-modes",
		Title: "Lemma 12: CONGEST (O(log n)-bit) vs large (O(log^3 n)-bit) message mode",
		Claim: "Lemma 12 (large-message mode trades message count for size)",
		Preamble: "Lemma 12 offers a trade: allow O(log^3 n)-bit messages and the message count drops by a log^2 n factor, because whole id sets travel in one message instead of O(log n)-bit chunks. " +
			"Both modes run on identical expander elections with identical seeds; expect the message ratio to grow with n (toward log^2 n) while the bit totals stay comparable.",
		FullTrials:  2,
		QuickTrials: 1,
		Points: func(cfg SuiteConfig) []Point {
			sizes := []int{64, 128, 256}
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
			runSeed := sim.DeriveSeed(seed, 0xB)
			resC, err := core.Run(g, core.DefaultConfig(),
				engine.Options{Seed: runSeed, LeanMetrics: true})
			if err != nil {
				return nil, err
			}
			cfgL := core.DefaultConfig()
			cfgL.Mode = protocol.ModeLarge
			resL, err := core.Run(g, cfgL,
				engine.Options{Seed: runSeed, LeanMetrics: true})
			if err != nil {
				return nil, err
			}
			return Metrics{
				"c_msgs": float64(resC.Metrics.Messages),
				"l_msgs": float64(resL.Metrics.Messages),
				"c_bits": float64(resC.Metrics.Bits),
				"l_bits": float64(resL.Metrics.Bits),
			}, nil
		},
		Render: renderE6,
	}
}

func renderE6(cfg SuiteConfig, data []PointData) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Lemma 12: CONGEST (O(log n)-bit) vs large (O(log^3 n)-bit) message mode",
		Columns: []string{"n", "congest msgs", "large msgs", "msg ratio", "ln^2 n", "congest bits", "large bits"},
	}
	for _, pd := range data {
		ln := math.Log(float64(pd.Point.N))
		cm, lm := pd.Median("c_msgs"), pd.Median("l_msgs")
		t.AddRow(d(pd.Point.N), d64(int64(cm)), d64(int64(lm)), f2(cm/lm),
			f1(ln*ln), d64(int64(pd.Median("c_bits"))), d64(int64(pd.Median("l_bits"))))
	}
	t.AddNote("Lemma 12 predicts a log^2 n gap between the modes' message counts; the measured ratio grows with n but is damped because much of the traffic (tokens, deltas) is already O(log n)-sized in both modes.")
	return t, nil
}
