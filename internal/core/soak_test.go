package core

import (
	"math/rand"
	"testing"

	"wcle/internal/engine"
	"wcle/internal/graph"
)

// TestSoakNeverTwoLeaders is a wider sweep of the safety invariant: many
// seeds across heterogeneous topologies, including poorly connected ones
// where elections legitimately fail — but never split.
func TestSoakNeverTwoLeaders(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	type tc struct {
		name string
		mk   func(seed int64) (*graph.Graph, error)
		cfg  func() Config
	}
	cases := []tc{
		{
			name: "clique-20",
			mk:   func(int64) (*graph.Graph, error) { return graph.Clique(20, nil) },
			cfg:  DefaultConfig,
		},
		{
			name: "rr4-40",
			mk: func(seed int64) (*graph.Graph, error) {
				return graph.RandomRegular(40, 4, rand.New(rand.NewSource(seed)))
			},
			cfg: DefaultConfig,
		},
		{
			name: "torus-6x6",
			mk:   func(int64) (*graph.Graph, error) { return graph.Torus2D(6, 6, nil) },
			cfg:  DefaultConfig,
		},
		{
			name: "barbell-8-capped",
			mk:   func(seed int64) (*graph.Graph, error) { return graph.Barbell(8, rand.New(rand.NewSource(seed))) },
			cfg: func() Config {
				c := DefaultConfig()
				c.MaxWalkLen = 16 // cap below the barbell's mixing: failures expected, splits forbidden
				return c
			},
		},
		{
			name: "cycle-24",
			mk:   func(int64) (*graph.Graph, error) { return graph.Cycle(24, nil) },
			cfg: func() Config {
				c := DefaultConfig()
				c.MaxWalkLen = 64
				return c
			},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var elected int
			for seed := int64(0); seed < 8; seed++ {
				g, err := c.mk(seed)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(g, c.cfg(), engine.Options{Seed: seed * 31})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if len(res.Leaders) > 1 {
					t.Fatalf("seed %d: SPLIT — leaders %v", seed, res.Leaders)
				}
				if res.Success {
					elected++
				}
			}
			t.Logf("%s: %d/8 elections succeeded (failures allowed, splits not)", c.name, elected)
		})
	}
}
