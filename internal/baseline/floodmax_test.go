package baseline

import (
	"math/rand"
	"testing"

	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/sim"
)

func TestFloodMaxElectsExactlyOne(t *testing.T) {
	graphs := []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Clique(16, nil) },
		func() (*graph.Graph, error) { return graph.Cycle(20, nil) },
		func() (*graph.Graph, error) { return graph.Hypercube(5, nil) },
		func() (*graph.Graph, error) {
			return graph.RandomRegular(32, 4, rand.New(rand.NewSource(3)))
		},
	}
	for _, mk := range graphs {
		g, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 4; seed++ {
			res, err := FloodMax(g, seed, 0)
			if err != nil {
				t.Fatalf("%s: %v", g.Name(), err)
			}
			if len(res.Leaders) != 1 {
				t.Fatalf("%s seed %d: leaders = %v", g.Name(), seed, res.Leaders)
			}
			if !res.AllAgree {
				t.Fatalf("%s seed %d: nodes disagree on the maximum", g.Name(), seed)
			}
		}
	}
}

func TestFloodMaxMessageScaleIsOmegaM(t *testing.T) {
	// FloodMax sends at least one message per edge direction (the initial
	// wave) — the Omega(m) regime the paper's algorithm escapes.
	g, err := graph.Clique(24, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FloodMax(g, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Messages < int64(2*g.M()) {
		t.Fatalf("messages = %d, want >= 2m = %d", res.Metrics.Messages, 2*g.M())
	}
	// And not absurdly more than m * horizon.
	if res.Metrics.Messages > int64(2*g.M()*g.N()) {
		t.Fatalf("messages = %d suspiciously high", res.Metrics.Messages)
	}
}

func TestFloodMaxShortHorizonOnCycleDisagrees(t *testing.T) {
	// With a horizon far below the diameter the maximum cannot reach every
	// node: multiple nodes may still believe they lead.
	g, err := graph.Cycle(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FloodMax(g, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllAgree {
		t.Fatal("horizon 3 on a 64-cycle should not reach agreement")
	}
}

// TestFloodMaxAnonymityRegression pins the anonymous-model contract of
// PR 2: candidate ids travel in the payload, and the algorithm must never
// read sender identities off the envelope. Toggling sim.Config.DebugFrom
// changes Envelope.From from -1 to the true sender index; if any node
// logic consulted it, the two runs below would diverge.
func TestFloodMaxAnonymityRegression(t *testing.T) {
	g, err := graph.RandomRegular(48, 6, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 3; seed++ {
		anon, err := Run(g, 0, engine.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		debug, err := Run(g, 0, engine.Options{Seed: seed, DebugFrom: true})
		if err != nil {
			t.Fatal(err)
		}
		if anon.LeaderID != debug.LeaderID || anon.Metrics.Messages != debug.Metrics.Messages ||
			anon.Metrics.FinalRound != debug.Metrics.FinalRound ||
			len(anon.Leaders) != len(debug.Leaders) {
			t.Fatalf("seed %d: DebugFrom changed the run: %+v vs %+v", seed, anon, debug)
		}
	}
}

// TestFloodMaxUnderDrops exercises the generalized entry point with a lossy
// delivery plane: losing flood improvements can break agreement, but never
// errors and never loses the message accounting.
func TestFloodMaxUnderDrops(t *testing.T) {
	g, err := graph.Clique(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, 0, engine.Options{Seed: 5, Fault: &sim.Drop{P: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.FaultDrops == 0 {
		t.Fatal("drop plane reported no drops")
	}
	if res.Metrics.Deliveries+res.Metrics.FaultDrops != res.Metrics.Messages {
		t.Fatalf("message conservation broken: %+v", res.Metrics)
	}
}

func TestFloodMaxDeterministic(t *testing.T) {
	g, err := graph.Hypercube(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := FloodMax(g, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FloodMax(g, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.Messages != b.Metrics.Messages || a.LeaderID != b.LeaderID {
		t.Fatal("replay diverged")
	}
}
