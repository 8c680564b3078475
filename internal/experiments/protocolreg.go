package experiments

// E22 exercises the protocol registry through the generic engine: every
// registered protocol — the four election backends and the dissemination
// substrates — runs through the same engine.Run call the cluster runtime
// and the conformance battery use, with per-node send accounting and an
// in-trial replay check of the determinism contract. The experiment
// harness itself stays protocol-agnostic: the spec only iterates
// engine.Names().

import (
	"reflect"

	"wcle/internal/engine"
	"wcle/internal/sim"
)

// e22Spec measures the cost portrait of the whole protocol registry under
// one engine entry point.
func e22Spec() Spec {
	return Spec{
		ID:    "E22",
		Name:  "protocol-registry",
		Title: "Protocol registry: every registered protocol through the generic engine (rr8)",
		Claim: "Engine determinism contract (DESIGN.md): same seed => identical outputs and per-node send counts for any registered protocol",
		Preamble: "Every registered protocol — the election backends and the dissemination substrates (push-pull, BFS tree, aggregation) — runs through the one generic engine.Run path here, with default configuration on a degree-8 random regular graph. " +
			"Each trial replays itself at the same seed and checks the determinism contract (identical output matrices and per-node send counts); the replay column must be identically 1. " +
			"The cost columns portray how differently shaped the protocols are under the same CONGEST accounting: flooding pays Theta(m) per round, gossip pays Theta(n), the walk-based election pays for its token walks.",
		FullTrials:  5,
		QuickTrials: 2,
		Points: func(cfg SuiteConfig) []Point {
			n := 128
			if cfg.Quick {
				n = 64
			}
			if cfg.MaxN > 0 && cfg.MaxN < n {
				n = cfg.MaxN
			}
			var out []Point
			for _, name := range engine.Names() {
				out = append(out, Point{Key: name, Label: name, Family: "rr8", N: n})
			}
			return out
		},
		Trial: func(cfg SuiteConfig, pt Point, setup interface{}, seed int64) (Metrics, error) {
			g, err := buildFamily("rr8", pt.N, sim.DeriveSeed(seed, 0xA))
			if err != nil {
				return nil, err
			}
			p, err := engine.New(pt.Label, engine.Config{})
			if err != nil {
				return nil, err
			}
			opts := engine.Options{Seed: sim.DeriveSeed(seed, 0xB), CountSends: true, LeanMetrics: true}
			res, err := engine.Run(p, g, opts)
			if err != nil {
				return nil, err
			}
			replay, err := engine.Run(p, g, opts)
			if err != nil {
				return nil, err
			}
			var maxNode int64
			for _, c := range res.PerNodeMessages {
				if c > maxNode {
					maxNode = c
				}
			}
			ok := reflect.DeepEqual(res.Outputs, replay.Outputs) &&
				reflect.DeepEqual(res.PerNodeMessages, replay.PerNodeMessages) &&
				res.Rounds == replay.Rounds
			return Metrics{
				"rounds":    float64(res.Rounds),
				"msgs":      float64(res.Metrics.Messages),
				"bits":      float64(res.Metrics.Bits),
				"max_node":  float64(maxNode),
				"replay_ok": b2f(ok),
			}, nil
		},
		Render: renderE22,
	}
}

func renderE22(cfg SuiteConfig, data []PointData) (*Table, error) {
	t := &Table{
		ID:      "E22",
		Title:   "Protocol registry: every registered protocol through the generic engine (rr8)",
		Columns: []string{"protocol", "n", "trials", "rounds", "messages", "bits", "max node msgs", "replays identical"},
	}
	for _, pd := range data {
		t.AddRow(pd.Point.Label, d(pd.Point.N), d(len(pd.Trials)),
			d(int(pd.Median("rounds"))), d64(int64(pd.Median("msgs"))),
			d64(int64(pd.Median("bits"))), d64(int64(pd.Median("max_node"))),
			d(pd.Count("replay_ok")))
	}
	t.AddNote("'replays identical' must equal 'trials' in every row: the engine's determinism contract — same (protocol, graph, seed) => identical outputs, rounds, and per-node send counts — is what the cluster conformance battery extends across TCP and fault planes.")
	t.AddNote("All rows use default configuration; elections run through the same generic path the cluster uses (the engine never learns they are elections).")
	return t, nil
}
