package algotest

// The Byzantine-conformance battery: the invariants every backend must
// keep when an active adversary mutates messages in transit. Elections
// may legitimately fail under forgery — a split electorate, zero leaders,
// a round cap — so the battery asserts what must survive regardless:
//
//   - outcome discipline: an honest-majority run either elects exactly
//     one leader or detectably aborts (Success false, or a deterministic
//     error) — never a silent half-election;
//   - honest leadership on pinned-adversary cases: when the adversary set
//     is known by construction and the election succeeds, the leader is
//     an honest node;
//   - replay determinism at a fixed seed, mutation accounting included
//     (same seed, same forgeries, same fate);
//   - anonymity under forgery: DebugFrom stamps sender indices on
//     envelopes, and the adversary mutates only payload bytes — toggling
//     it cannot change a Byzantine run;
//   - the extended accounting identity: sends = deliveries + fault drops,
//     where destroyed forgeries count as fault drops.
//
// Cases are serve.FaultSpec values (the wire form), so the identical
// battery runs in process and over a TCP cluster, and ByzantineParityOn
// can demand the two agree byte-for-byte.

import (
	"testing"

	"wcle/internal/algo"
	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/serve"
)

// ByzantineCases returns the battery's adversary configurations for one
// graph: a sampled minority, a pinned two-node adversary set (the case
// whose honest set is known by construction), and a composition with an
// omission plane.
func ByzantineCases(g *graph.Graph) []FaultCase {
	return []FaultCase{
		{"byz15", serve.FaultSpec{Byz: 0.15}},
		{"byz-pinned", serve.FaultSpec{ByzNodes: PinnedAdversaries(g)}},
		{"byz15+drop5", serve.FaultSpec{Byz: 0.15, Drop: 0.05}},
	}
}

// PinnedAdversaries is the battery's explicit adversary set for a graph:
// two nodes, fixed relative positions, always a strict minority on the
// conformance families.
func PinnedAdversaries(g *graph.Graph) []int {
	n := g.N()
	if n < 4 {
		return []int{0}
	}
	return []int{1, n / 2}
}

// ByzantineConformance runs the Byzantine battery for one backend in
// process.
func ByzantineConformance(t *testing.T, name string, cfgFor func(graphName string, g *graph.Graph) algo.Config, seeds []int64) {
	t.Helper()
	ByzantineConformanceOn(t, name, cfgFor, seeds, InProcessFaultRunner)
}

// ByzantineConformanceOn runs the Byzantine battery for one backend
// through an arbitrary delivery plane.
func ByzantineConformanceOn(t *testing.T, name string, cfgFor func(graphName string, g *graph.Graph) algo.Config, seeds []int64, run FaultRunner) {
	t.Helper()
	for _, tg := range FaultGraphs(t, cfgFor) {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			for _, fc := range ByzantineCases(tg.G) {
				fc := fc
				t.Run(fc.Name, func(t *testing.T) {
					var mutated int64
					for _, seed := range seeds {
						opts := engine.Options{Seed: seed}
						out, err := run(name, tg.Cfg, tg.G, opts, fc.Spec)
						if err != nil {
							// A detectable abort is a legitimate Byzantine
							// outcome — but it must be the deterministic one:
							// the same seed aborts identically on replay.
							_, rerr := run(name, tg.Cfg, tg.G, opts, fc.Spec)
							if rerr == nil || rerr.Error() != err.Error() {
								t.Fatalf("seed %d: abort not deterministic: %v vs %v", seed, err, rerr)
							}
							continue
						}
						assertFaultConsistency(t, seed, out)
						assertHonestLeader(t, seed, out, fc.Spec.ByzNodes)
						mutated += out.Metrics.Mutated

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
					// The adversary must actually forge somewhere on the seed
					// set (fixed seeds: once green, always green).
					if mutated == 0 {
						t.Fatalf("%s mutated nothing across seeds %v", fc.Name, seeds)
					}
				})
			}
		})
	}
}

// ByzantineParityOn runs every Byzantine battery case through two
// delivery planes and demands identical outcomes — the fault-parity
// contract extended to active adversaries (the in-process sim vs. the
// TCP cluster). Mutation happens at dispatch on the sender-hosting shard
// with sender-keyed randomness, so the forged bytes themselves cross the
// wire; this battery is the CI enforcement of that design.
func ByzantineParityOn(t *testing.T, name string, cfgFor func(graphName string, g *graph.Graph) algo.Config, seeds []int64, ref, under FaultRunner) {
	t.Helper()
	for _, tg := range FaultGraphs(t, cfgFor) {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			for _, fc := range ByzantineCases(tg.G) {
				fc := fc
				t.Run(fc.Name, func(t *testing.T) {
					for _, seed := range seeds {
						opts := engine.Options{Seed: seed}
						want, werr := ref(name, tg.Cfg, tg.G, opts, fc.Spec)
						got, gerr := under(name, tg.Cfg, tg.G, opts, fc.Spec)
						if (werr == nil) != (gerr == nil) {
							t.Fatalf("seed %d: planes disagree on failure: ref %v, under %v", seed, werr, gerr)
						}
						if werr != nil {
							continue // both aborted; parity of the abort is enough
						}
						assertSameFaultOutcome(t, seed, "byzantine plane parity", want, got)
					}
				})
			}
		})
	}
}

// ByzantineProtocolParityOn is the engine-level analogue of
// ByzantineParityOn: every Byzantine battery case through two delivery
// planes, demanding cell-identical engine results (outputs, per-node
// sends, mutation counters). With cfgFor returning Config.Defend it is
// also the wire-parity proof for the committee defense: the claim frames,
// the quorum decisions, and the vouch fast path must replay identically
// over TCP.
func ByzantineProtocolParityOn(t *testing.T, name string, cfgFor func(graphName string, g *graph.Graph) engine.Config, seeds []int64, ref, under ProtocolRunner) {
	t.Helper()
	for _, tg := range protocolFaultGraphs(t) {
		tg := tg
		cfg := cfgFor(tg.Name, tg.G)
		t.Run(tg.Name, func(t *testing.T) {
			for _, fc := range ByzantineCases(tg.G) {
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
						assertSameProtocolResult(t, seed, "byzantine plane parity", want, got)
					}
				})
			}
		})
	}
}

// assertHonestLeader enforces the pinned-case safety clause: a successful
// election under a known adversary set names an honest leader. (Sampled
// cases pass nil and skip the check — the set lives inside the plane.)
func assertHonestLeader(t *testing.T, seed int64, out *algo.Outcome, adversaries []int) {
	t.Helper()
	if !out.Success || len(adversaries) == 0 {
		return
	}
	for _, a := range adversaries {
		if out.Leaders[0] == a {
			t.Fatalf("seed %d: elected adversary %d as leader (adversaries %v)", seed, out.Leaders[0], adversaries)
		}
	}
}
