// Package algo makes election protocols first-class pluggable backends:
// the ElectionProtocol contract, a named table of backends, and election
// tallies (one/zero/multi leaders, contenders) folded over
// engine.RunMany's batch loop, so every surface of the repo (the wcle
// facade, cmd/electsim, the experiment harness, the electd service, the
// cluster runtime) compares protocols through one contract instead of
// hard-wiring the paper's algorithm.
//
// Every built-in backend is an ElectionProtocol: an engine.Protocol plus
// a Finish fold from the engine's report — the per-node output matrix and
// the run's accounting, nothing else — into an election Outcome. The
// implicit elections (gilbertrs18, gilbertrs18-fixed, kpprt) share one
// slot list and one fold; floodmax folds its own. Because the fold needs
// only the matrix, the cluster runtime calls the same Finish on the
// matrix it reassembles from its shards. Each backend is built from the
// engine's flat Config by one constructor, which reads the knobs its
// backend uses and applies their defaults. The table is registered in
// engine's registry, so protocol-generic layers (the cluster runtime,
// cmd/electsim -protocol, the conformance batteries, the E22 experiment)
// run elections without knowing they are elections; New is its typed
// lookup. Run is engine.Run followed by Finish, and returns the Outcome
// together with the engine report (per-node send counts under
// engine.Options.CountSends — the currency of the keystone invariant).
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
