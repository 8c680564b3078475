// Package algo makes election protocols first-class pluggable backends: a
// small Algorithm interface, a named registry, and election tallies
// (one/zero/multi leaders, contenders) folded over engine.RunMany's batch
// loop, so every surface of the repo (the wcle facade, cmd/electsim, the
// experiment harness, the electd service, the cluster runtime) compares
// protocols through one contract instead of hard-wiring the paper's
// algorithm.
//
// Since the engine extraction, Algorithm is a thin adapter over the
// generic protocol substrate of internal/engine: every built-in backend
// implements ElectionProtocol (engine.Protocol plus a Finish fold from the
// engine's per-node output report into an election Outcome), and is
// registered in BOTH registries — here under the election contract, and in
// engine's under the protocol contract, so protocol-generic layers (the
// cluster runtime, cmd/electsim -protocol, the conformance batteries, the
// E22 experiment) run elections without knowing they are elections.
// algo.RunWithReport returns the Outcome together with the engine report
// (per-node send counts — the currency of the keystone invariant).
//
// Four backends ship in the registry:
//
//   - gilbertrs18 — the paper's guess-and-double random-walk election
//     (internal/core): O(sqrt(n) log^{7/2} n · tmix) messages,
//     O(tmix log^2 n) rounds, no knowledge of tmix.
//   - gilbertrs18-fixed — the known-tmix single-phase baseline of Kutten
//     et al. [25]: the same machinery with FixedWalkLen pinned.
//   - floodmax — the Omega(m)-message flooding baseline
//     (internal/baseline): explicit election in Theta(n) rounds, the
//     general-graph regime the paper's bound is contrasted against.
//   - kpprt — a KPPRT-style sublinear randomized election (Kutten,
//     Pandurangan, Peleg, Robinson, Trehan, "Sublinear Bounds for
//     Randomized Leader Election"): candidate sampling plus referee
//     committees, ~O(sqrt(n) log^{3/2} n) messages on its home regime
//     (complete graphs, and diameter-two/expander graphs via short
//     referee-sampling walks — the scenario of Chatterjee–Pandurangan–
//     Robinson).
//
// Contract (see DESIGN.md sections 6 and 8 for the full discussion): a
// backend receives a port-numbered graph and the engine's per-run
// engine.Options (seed, budget, fault plane, observers, LeanMetrics,
// DebugFrom) and must
// (1) be a pure function of (graph, options) — all randomness through the
// per-node sim streams, and send order within a Step deterministic (fault
// planes are sequence-sensitive), (2) respect the anonymous model — node
// identities are protocol-level random ids in payloads, never
// Envelope.From, and (3) leave scheduling to the sim planes — no backdoor
// communication between node processes. The algotest subpackage checks
// these invariants for every registered backend, and its Protocol*
// batteries check the generalized contract for every engine-registered
// protocol.
package algo
