package algotest

// The fault-conformance battery: the invariants every backend must keep
// when a delivery-plane adversary is attached. Elections may legitimately
// fail under faults (zero leaders after a partition is correct behavior),
// so the battery asserts what must survive regardless: determinism (same
// seed + same fault replays identically), anonymity (DebugFrom cannot
// change a run), internal consistency of the outcome, and the fault
// accounting identity. Fault cases are expressed as serve.FaultSpec — the
// wire form — so the same case runs in process and over a TCP cluster,
// and FaultParityOn can demand the two agree byte-for-byte.

import (
	"testing"

	"wcle/internal/algo"
	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/serve"
)

// FaultCase is one adversary configuration of the battery.
type FaultCase struct {
	Name string
	Spec serve.FaultSpec
}

// FaultCases returns the standard adversaries: drop, delay, crash,
// partition, and a composition. Parameters are mild enough that
// well-connected graphs usually still elect, harsh enough that the fault
// counters must move.
func FaultCases() []FaultCase {
	return []FaultCase{
		{"drop5", serve.FaultSpec{Drop: 0.05}},
		{"delay2", serve.FaultSpec{DelayMax: 2}},
		{"crash20", serve.FaultSpec{CrashFrac: 0.2, CrashRound: 2}},
		{"partition25", serve.FaultSpec{PartitionFrac: 0.25, PartitionFrom: 1, PartitionTo: 12}},
		{"drop+delay", serve.FaultSpec{Drop: 0.03, DelayMax: 1}},
	}
}

// FaultGraphs returns the battery's graph set: the well-connected
// families (the paper's setting), where mild adversaries leave an
// election its conductance headroom. Sparse families (cycle) under drops
// are a different regime — round caps, not invariants.
func FaultGraphs(t *testing.T, cfgFor func(name string, g *graph.Graph) engine.Config) []TestGraph {
	t.Helper()
	all := Graphs(t, cfgFor)
	keep := all[:0]
	for _, tg := range all {
		if tg.Name == "rr8-32" || tg.Name == "clique16" {
			keep = append(keep, tg)
		}
	}
	return keep
}

// FaultRunner executes one election of the named, configured backend on a
// conformance graph under the given adversary. The in-process default
// instantiates fault.Plane(); the cluster transport ships the spec in the
// JobSpec instead.
type FaultRunner func(name string, cfg engine.Config, g *graph.Graph, opts engine.Options, fault serve.FaultSpec) (*algo.Outcome, error)

// InProcessFaultRunner is the reference FaultRunner: build the backend,
// attach the spec's plane, run in process.
func InProcessFaultRunner(name string, cfg engine.Config, g *graph.Graph, opts engine.Options, fault serve.FaultSpec) (*algo.Outcome, error) {
	p, err := algo.New(name, cfg)
	if err != nil {
		return nil, err
	}
	opts.Fault = fault.Plane()
	out, _, err := algo.Run(p, g, opts)
	return out, err
}

// FaultConformance runs the fault battery for one backend in process.
func FaultConformance(t *testing.T, name string, cfgFor func(graphName string, g *graph.Graph) engine.Config, seeds []int64) {
	t.Helper()
	FaultConformanceOn(t, name, cfgFor, seeds, InProcessFaultRunner)
}

// FaultConformanceOn runs the fault battery for one backend through an
// arbitrary delivery plane.
func FaultConformanceOn(t *testing.T, name string, cfgFor func(graphName string, g *graph.Graph) engine.Config, seeds []int64, run FaultRunner) {
	t.Helper()
	for _, tg := range FaultGraphs(t, cfgFor) {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			for _, fc := range FaultCases() {
				fc := fc
				t.Run(fc.Name, func(t *testing.T) {
					var drops, delayed int64
					for _, seed := range seeds {
						opts := engine.Options{Seed: seed}
						out, err := run(name, tg.Cfg, tg.G, opts, fc.Spec)
						if err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
						assertFaultConsistency(t, seed, out)
						drops += out.Metrics.FaultDrops
						delayed += out.Metrics.Delayed

						replay, err := run(name, tg.Cfg, tg.G, opts, fc.Spec)
						if err != nil {
							t.Fatalf("seed %d replay: %v", seed, err)
						}
						assertSameFaultOutcome(t, seed, "replay", out, replay)

						debug, err := run(name, tg.Cfg, tg.G, engine.Options{Seed: seed, DebugFrom: true}, fc.Spec)
						if err != nil {
							t.Fatalf("seed %d debug: %v", seed, err)
						}
						assertSameFaultOutcome(t, seed, "DebugFrom", out, debug)
					}
					// The adversary must actually bite somewhere on the seed
					// set (fixed seeds: once green, always green). Short runs
					// can dodge a 5% drop rate at one seed, not at all of them.
					dropping := fc.Spec.Drop > 0 || fc.Spec.PartitionFrac > 0 || fc.Spec.CrashFrac > 0
					if dropping && drops == 0 {
						t.Fatalf("%s reported zero fault drops across seeds %v", fc.Name, seeds)
					}
					if fc.Spec.DelayMax > 0 && delayed == 0 {
						t.Fatalf("%s reported zero delayed sends across seeds %v", fc.Name, seeds)
					}
				})
			}
		})
	}
}

// FaultParityOn runs every battery case through two delivery planes and
// demands identical outcomes — the keystone determinism contract under
// faults (the in-process sim vs. the TCP cluster).
func FaultParityOn(t *testing.T, name string, cfgFor func(graphName string, g *graph.Graph) engine.Config, seeds []int64, ref, under FaultRunner) {
	t.Helper()
	for _, tg := range FaultGraphs(t, cfgFor) {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			for _, fc := range FaultCases() {
				fc := fc
				t.Run(fc.Name, func(t *testing.T) {
					for _, seed := range seeds {
						opts := engine.Options{Seed: seed}
						want, err := ref(name, tg.Cfg, tg.G, opts, fc.Spec)
						if err != nil {
							t.Fatalf("seed %d reference: %v", seed, err)
						}
						got, err := under(name, tg.Cfg, tg.G, opts, fc.Spec)
						if err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
						assertSameFaultOutcome(t, seed, "plane parity", want, got)
					}
				})
			}
		})
	}
}

// assertFaultConsistency checks what must hold whatever the adversary
// did: the outcome is internally consistent and the accounting closes.
func assertFaultConsistency(t *testing.T, seed int64, out *algo.Outcome) {
	t.Helper()
	m := out.Metrics
	if out.Success != (len(out.Leaders) == 1) {
		t.Fatalf("seed %d: success=%v with %d leaders", seed, out.Success, len(out.Leaders))
	}
	// A successful election names its leader; multi-leader splits need
	// not (floodmax reports ids only for a unique leader).
	if out.Success && (len(out.LeaderIDs) != 1 || out.LeaderIDs[0] == 0) {
		t.Fatalf("seed %d: successful election with leader ids %v", seed, out.LeaderIDs)
	}
	if m.Dropped != 0 {
		t.Fatalf("seed %d: %d budget drops with no budget set", seed, m.Dropped)
	}
	// Accounting identity: every counted send was either delivered or
	// lost by the fault plane. (Delays reorder, never lose.)
	if m.Messages != m.Deliveries+m.FaultDrops {
		t.Fatalf("seed %d: accounting leak: %d sends, %d deliveries + %d fault drops",
			seed, m.Messages, m.Deliveries, m.FaultDrops)
	}
}

// assertSameFaultOutcome extends assertSameOutcome with the fault
// counters: a replay (or another delivery plane) must reproduce the
// adversary's interventions exactly, not just the election result.
func assertSameFaultOutcome(t *testing.T, seed int64, what string, a, b *algo.Outcome) {
	t.Helper()
	assertSameOutcome(t, seed, what, a, b)
	if a.Metrics.FaultDrops != b.Metrics.FaultDrops || a.Metrics.Delayed != b.Metrics.Delayed {
		t.Fatalf("seed %d: %s diverged on fault accounting: drops %d vs %d, delayed %d vs %d",
			seed, what, a.Metrics.FaultDrops, b.Metrics.FaultDrops, a.Metrics.Delayed, b.Metrics.Delayed)
	}
	if a.Metrics.Mutated != b.Metrics.Mutated {
		t.Fatalf("seed %d: %s diverged on mutation accounting: %d vs %d",
			seed, what, a.Metrics.Mutated, b.Metrics.Mutated)
	}
}
