// Package algotest is the cross-backend conformance suite: a reusable
// test harness asserting the invariants every registered election backend
// must satisfy on a shared set of graph families (cycle, torus, expander,
// clique). Backends run it from a normal Go test, supplying per-graph
// configuration (poorly connected graphs legitimately need wider sampling
// parameters); a future backend gets the whole battery for free. The
// battery is also delivery-plane-agnostic: ConformanceOn accepts a Runner,
// which the cluster transport (internal/cluster) uses to run the same
// invariants over loopback TCP.
//
// Invariants checked per (backend, graph):
//
//   - exactly one leader on every asserted seed (safety and liveness of
//     the election itself);
//   - seed determinism: an identical (graph, options) pair replays to an
//     identical outcome, including the message/bit accounting;
//   - anonymity: toggling Options.DebugFrom (which stamps sender indices
//     on envelopes) cannot change the run — a backend reading
//     Envelope.From would diverge here;
//   - message conservation under the perfect delivery plane: every
//     accepted send is delivered (Messages == Deliveries) and nothing is
//     budget- or fault-dropped.
package algotest

import (
	"math/rand"
	"testing"

	"wcle/internal/algo"
	"wcle/internal/engine"
	"wcle/internal/graph"
)

// TestGraph is one conformance graph plus the backend configuration to
// use on it.
type TestGraph struct {
	Name string
	G    *graph.Graph
	Cfg  engine.Config
}

// Graphs returns the standard conformance families — cycle, torus,
// expander (random 8-regular), clique — each configured by cfgFor (which
// may return the zero engine.Config for backend defaults).
func Graphs(t *testing.T, cfgFor func(name string, g *graph.Graph) engine.Config) []TestGraph {
	t.Helper()
	build := func(name string, g *graph.Graph, err error) TestGraph {
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		return TestGraph{Name: name, G: g, Cfg: cfgFor(name, g)}
	}
	cyc, errC := graph.Cycle(12, nil)
	tor, errT := graph.Torus2D(4, 4, nil)
	exp, errE := graph.RandomRegular(32, 8, rand.New(rand.NewSource(3)))
	clq, errK := graph.Clique(16, nil)
	return []TestGraph{
		build("cycle12", cyc, errC),
		build("torus4x4", tor, errT),
		build("rr8-32", exp, errE),
		build("clique16", clq, errK),
	}
}

// Runner executes one election of the named, configured backend on a
// conformance graph. The default target builds the backend and runs it in
// process; alternative delivery planes (the cluster transport over
// loopback TCP) substitute their own and get the same invariant battery.
type Runner func(name string, cfg engine.Config, g *graph.Graph, opts engine.Options) (*algo.Outcome, error)

// Conformance runs the invariant battery for one backend across the
// standard graphs, in process. seeds are the asserted election seeds
// (deterministic: once green, always green).
func Conformance(t *testing.T, name string, cfgFor func(graphName string, g *graph.Graph) engine.Config, seeds []int64) {
	t.Helper()
	ConformanceOn(t, name, cfgFor, seeds, func(name string, cfg engine.Config, g *graph.Graph, opts engine.Options) (*algo.Outcome, error) {
		p, err := algo.New(name, cfg)
		if err != nil {
			return nil, err
		}
		out, _, err := algo.Run(p, g, opts)
		return out, err
	})
}

// ConformanceOn runs the invariant battery for one backend through an
// arbitrary delivery plane.
func ConformanceOn(t *testing.T, name string, cfgFor func(graphName string, g *graph.Graph) engine.Config, seeds []int64, run Runner) {
	t.Helper()
	for _, tg := range Graphs(t, cfgFor) {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			p, err := algo.New(name, tg.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			if p.Name() != algo.Resolve(name) {
				t.Fatalf("backend reports name %q, registry says %q", p.Name(), name)
			}
			for _, seed := range seeds {
				opts := engine.Options{Seed: seed}
				out, err := run(name, tg.Cfg, tg.G, opts)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				assertOneLeader(t, seed, out)
				assertConservation(t, seed, out)

				replay, err := run(name, tg.Cfg, tg.G, opts)
				if err != nil {
					t.Fatalf("seed %d replay: %v", seed, err)
				}
				assertSameOutcome(t, seed, "replay", out, replay)

				debug, err := run(name, tg.Cfg, tg.G, engine.Options{Seed: seed, DebugFrom: true})
				if err != nil {
					t.Fatalf("seed %d debug: %v", seed, err)
				}
				assertSameOutcome(t, seed, "DebugFrom", out, debug)
			}
		})
	}
}

func assertOneLeader(t *testing.T, seed int64, out *algo.Outcome) {
	t.Helper()
	if len(out.Leaders) != 1 || !out.Success {
		t.Fatalf("seed %d: leaders = %v (success=%v), want exactly one", seed, out.Leaders, out.Success)
	}
	if len(out.LeaderIDs) != 1 || out.LeaderIDs[0] == 0 {
		t.Fatalf("seed %d: leader ids = %v, want one non-zero id", seed, out.LeaderIDs)
	}
	if out.LeaderRound < 0 || out.LeaderRound > out.Rounds {
		t.Fatalf("seed %d: leader round %d outside [0, %d]", seed, out.LeaderRound, out.Rounds)
	}
	if out.Contenders < 1 {
		t.Fatalf("seed %d: %d contenders with a leader", seed, out.Contenders)
	}
}

// assertConservation checks the perfect-plane accounting identity: every
// accepted send is eventually delivered, and nothing is dropped.
func assertConservation(t *testing.T, seed int64, out *algo.Outcome) {
	t.Helper()
	m := out.Metrics
	if m.Messages != m.Deliveries {
		t.Fatalf("seed %d: conservation broken: %d sends, %d deliveries", seed, m.Messages, m.Deliveries)
	}
	if m.Dropped != 0 || m.FaultDrops != 0 || m.Delayed != 0 {
		t.Fatalf("seed %d: perfect plane reported drops/delays: %+v", seed, m)
	}
	if m.Messages > 0 && m.Bits < m.Messages {
		t.Fatalf("seed %d: %d bits for %d messages", seed, m.Bits, m.Messages)
	}
}

func assertSameOutcome(t *testing.T, seed int64, what string, a, b *algo.Outcome) {
	t.Helper()
	same := len(a.Leaders) == len(b.Leaders) &&
		a.Success == b.Success &&
		a.Explicit == b.Explicit &&
		a.Contenders == b.Contenders &&
		a.LeaderRound == b.LeaderRound &&
		a.Rounds == b.Rounds &&
		a.Metrics.Messages == b.Metrics.Messages &&
		a.Metrics.Bits == b.Metrics.Bits &&
		a.Metrics.Deliveries == b.Metrics.Deliveries
	for i := range a.Leaders {
		same = same && a.Leaders[i] == b.Leaders[i]
	}
	for i := range a.LeaderIDs {
		same = same && i < len(b.LeaderIDs) && a.LeaderIDs[i] == b.LeaderIDs[i]
	}
	if !same {
		t.Fatalf("seed %d: %s diverged:\n  a: %+v\n  b: %+v", seed, what, a, b)
	}
}
