package algotest

// The protocol-generic battery: the invariants every engine-registered
// protocol (elections and non-elections alike) must satisfy, stated in
// engine-level terms — the per-node output matrix and per-node send
// counts. This is the generalized keystone contract: the same (protocol,
// graph, seed) must produce identical outputs and identical per-node
// message counts on every delivery plane, fault-plane adversaries
// included. ProtocolParityOn is how the cluster transport proves it over
// real TCP (internal/cluster's protocol conformance tests).

import (
	"testing"

	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/serve"
)

// ProtocolRunner executes one run of the named, configured engine protocol
// on a graph under an adversary (the zero FaultSpec is perfect delivery).
// Runners must report per-node send counts (engine.Options.CountSends).
type ProtocolRunner func(name string, cfg engine.Config, g *graph.Graph, seed int64, debugFrom bool, fault serve.FaultSpec) (*engine.Result, error)

// InProcessProtocolRunner is the reference ProtocolRunner: build from the
// engine registry, run on the in-process sim.
func InProcessProtocolRunner(name string, cfg engine.Config, g *graph.Graph, seed int64, debugFrom bool, fault serve.FaultSpec) (*engine.Result, error) {
	p, err := engine.New(name, cfg)
	if err != nil {
		return nil, err
	}
	return engine.Run(p, g, engine.Options{
		Seed:       seed,
		DebugFrom:  debugFrom,
		CountSends: true,
		Fault:      fault.Plane(),
	})
}

// ProtocolConformance runs the protocol battery in process.
func ProtocolConformance(t *testing.T, name string, cfgFor func(graphName string, g *graph.Graph) engine.Config, seeds []int64) {
	t.Helper()
	ProtocolConformanceOn(t, name, cfgFor, seeds, InProcessProtocolRunner)
}

// ProtocolConformanceOn runs the protocol battery for one protocol through
// an arbitrary delivery plane: well-formed output matrix, seed-replay
// determinism, DebugFrom anonymity, and perfect-plane conservation.
func ProtocolConformanceOn(t *testing.T, name string, cfgFor func(graphName string, g *graph.Graph) engine.Config, seeds []int64, run ProtocolRunner) {
	t.Helper()
	for _, tg := range protocolGraphs(t) {
		tg := tg
		cfg := cfgFor(tg.Name, tg.G)
		t.Run(tg.Name, func(t *testing.T) {
			for _, seed := range seeds {
				res, err := run(name, cfg, tg.G, seed, false, serve.FaultSpec{})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				assertProtocolShape(t, seed, name, tg.G.N(), res)
				m := res.Metrics
				if m.Messages != m.Deliveries {
					t.Fatalf("seed %d: conservation broken: %d sends, %d deliveries", seed, m.Messages, m.Deliveries)
				}
				if m.Dropped != 0 || m.FaultDrops != 0 || m.Delayed != 0 {
					t.Fatalf("seed %d: perfect plane reported drops/delays: %+v", seed, m)
				}

				replay, err := run(name, cfg, tg.G, seed, false, serve.FaultSpec{})
				if err != nil {
					t.Fatalf("seed %d replay: %v", seed, err)
				}
				assertSameProtocolResult(t, seed, "replay", res, replay)

				debug, err := run(name, cfg, tg.G, seed, true, serve.FaultSpec{})
				if err != nil {
					t.Fatalf("seed %d debug: %v", seed, err)
				}
				assertSameProtocolResult(t, seed, "DebugFrom", res, debug)
			}
		})
	}
}

// ProtocolFaultConformanceOn runs every battery adversary through one
// delivery plane: whatever the adversary did, the run must replay
// identically, stay anonymous, and close its accounting.
func ProtocolFaultConformanceOn(t *testing.T, name string, cfgFor func(graphName string, g *graph.Graph) engine.Config, seeds []int64, run ProtocolRunner) {
	t.Helper()
	for _, tg := range protocolFaultGraphs(t) {
		tg := tg
		cfg := cfgFor(tg.Name, tg.G)
		t.Run(tg.Name, func(t *testing.T) {
			for _, fc := range FaultCases() {
				fc := fc
				t.Run(fc.Name, func(t *testing.T) {
					for _, seed := range seeds {
						res, err := run(name, cfg, tg.G, seed, false, fc.Spec)
						if err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
						assertProtocolShape(t, seed, name, tg.G.N(), res)
						m := res.Metrics
						if m.Messages != m.Deliveries+m.FaultDrops {
							t.Fatalf("seed %d: accounting leak: %d sends, %d deliveries + %d fault drops",
								seed, m.Messages, m.Deliveries, m.FaultDrops)
						}

						replay, err := run(name, cfg, tg.G, seed, false, fc.Spec)
						if err != nil {
							t.Fatalf("seed %d replay: %v", seed, err)
						}
						assertSameProtocolResult(t, seed, "replay", res, replay)

						debug, err := run(name, cfg, tg.G, seed, true, fc.Spec)
						if err != nil {
							t.Fatalf("seed %d debug: %v", seed, err)
						}
						assertSameProtocolResult(t, seed, "DebugFrom", res, debug)
					}
				})
			}
		})
	}
}

// ProtocolParityOn runs every (graph, adversary, seed) cell through two
// delivery planes and demands byte-identical engine results — outputs,
// per-node send counts, metrics, and the adversary's own counters. This is
// the generalized keystone contract; the perfect plane rides along as the
// first adversary.
func ProtocolParityOn(t *testing.T, name string, cfgFor func(graphName string, g *graph.Graph) engine.Config, seeds []int64, ref, under ProtocolRunner) {
	t.Helper()
	cases := append([]FaultCase{{Name: "perfect", Spec: serve.FaultSpec{}}}, FaultCases()...)
	for _, tg := range protocolFaultGraphs(t) {
		tg := tg
		cfg := cfgFor(tg.Name, tg.G)
		t.Run(tg.Name, func(t *testing.T) {
			for _, fc := range cases {
				fc := fc
				t.Run(fc.Name, func(t *testing.T) {
					for _, seed := range seeds {
						want, err := ref(name, cfg, tg.G, seed, false, fc.Spec)
						if err != nil {
							t.Fatalf("seed %d reference: %v", seed, err)
						}
						got, err := under(name, cfg, tg.G, seed, false, fc.Spec)
						if err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
						assertSameProtocolResult(t, seed, "plane parity", want, got)
					}
				})
			}
		})
	}
}

// protocolGraphs is the protocol battery's graph set — the conformance
// families without backend configuration (engine.Config rides separately).
func protocolGraphs(t *testing.T) []TestGraph {
	t.Helper()
	return Graphs(t, func(string, *graph.Graph) engine.Config { return engine.Config{} })
}

// protocolFaultGraphs mirrors FaultGraphs: the well-connected families.
func protocolFaultGraphs(t *testing.T) []TestGraph {
	t.Helper()
	keep := make([]TestGraph, 0, 2)
	for _, tg := range protocolGraphs(t) {
		if tg.Name == "rr8-32" || tg.Name == "clique16" {
			keep = append(keep, tg)
		}
	}
	return keep
}

// assertProtocolShape checks the result is well-formed: a full output
// matrix with rows matching the declared slots, and per-node send counts
// summing to the message total.
func assertProtocolShape(t *testing.T, seed int64, name string, n int, res *engine.Result) {
	t.Helper()
	if res.Protocol != name {
		t.Fatalf("seed %d: result names protocol %q, ran %q", seed, res.Protocol, name)
	}
	if len(res.Slots) == 0 {
		t.Fatalf("seed %d: protocol %q declares no output slots", seed, name)
	}
	if len(res.Outputs) != n {
		t.Fatalf("seed %d: %d output rows for %d nodes", seed, len(res.Outputs), n)
	}
	for v, o := range res.Outputs {
		if len(o) != len(res.Slots) {
			t.Fatalf("seed %d: node %d output %v does not match slots %v", seed, v, o, res.Slots)
		}
	}
	if len(res.PerNodeMessages) != n {
		t.Fatalf("seed %d: %d per-node counts for %d nodes", seed, len(res.PerNodeMessages), n)
	}
	var sum int64
	for _, c := range res.PerNodeMessages {
		if c < 0 {
			t.Fatalf("seed %d: negative per-node count in %v", seed, res.PerNodeMessages)
		}
		sum += c
	}
	if sum != res.Metrics.Messages {
		t.Fatalf("seed %d: per-node counts sum to %d, metrics say %d messages", seed, sum, res.Metrics.Messages)
	}
}

// assertSameProtocolResult demands two engine results be identical cell
// for cell: the output matrix, the per-node send counts, and the run
// accounting including the fault counters.
func assertSameProtocolResult(t *testing.T, seed int64, what string, a, b *engine.Result) {
	t.Helper()
	if a.Protocol != b.Protocol || a.Rounds != b.Rounds {
		t.Fatalf("seed %d: %s diverged: protocol %q/%d rounds vs %q/%d rounds",
			seed, what, a.Protocol, a.Rounds, b.Protocol, b.Rounds)
	}
	if len(a.Outputs) != len(b.Outputs) {
		t.Fatalf("seed %d: %s diverged: %d vs %d output rows", seed, what, len(a.Outputs), len(b.Outputs))
	}
	for v := range a.Outputs {
		av, bv := a.Outputs[v], b.Outputs[v]
		if len(av) != len(bv) {
			t.Fatalf("seed %d: %s diverged at node %d: %v vs %v", seed, what, v, av, bv)
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("seed %d: %s diverged at node %d: %v vs %v", seed, what, v, av, bv)
			}
		}
	}
	if len(a.PerNodeMessages) != len(b.PerNodeMessages) {
		t.Fatalf("seed %d: %s diverged: %d vs %d per-node counts",
			seed, what, len(a.PerNodeMessages), len(b.PerNodeMessages))
	}
	for v := range a.PerNodeMessages {
		if a.PerNodeMessages[v] != b.PerNodeMessages[v] {
			t.Fatalf("seed %d: %s diverged on node %d sends: %d vs %d",
				seed, what, v, a.PerNodeMessages[v], b.PerNodeMessages[v])
		}
	}
	am, bm := a.Metrics, b.Metrics
	if am.Messages != bm.Messages || am.Bits != bm.Bits || am.Deliveries != bm.Deliveries ||
		am.FaultDrops != bm.FaultDrops || am.Delayed != bm.Delayed || am.Mutated != bm.Mutated {
		t.Fatalf("seed %d: %s diverged on accounting:\n  a: %+v\n  b: %+v", seed, what, am, bm)
	}
}
