// Package wcle (Well-Connected Leader Election) is a full reproduction of
//
//	"Leader Election in Well-Connected Graphs",
//	Seth Gilbert, Peter Robinson, Suman Sourav — PODC 2018
//	(arXiv:1901.00342)
//
// It implements the paper's randomized implicit leader-election algorithm at
// CONGEST message fidelity on a synchronous network simulator, every
// substrate the paper depends on (port-numbered graphs, lazy random walks
// and their spectral theory, push-pull rumor spreading, flooding baselines,
// the Section 4 lower-bound graph constructions), and an experiment suite
// that regenerates a measurement for every quantitative claim in the paper
// (Theorems 13/15/28, Lemmas 1-25, Corollaries 14/26/27, Figures 1-2).
//
// # Quick start
//
//	g, err := wcle.NewRandomRegular(256, 8, 1)   // an expander
//	if err != nil { ... }
//	res, err := wcle.Elect(g, wcle.DefaultConfig(), wcle.Options{Seed: 7})
//	if err != nil { ... }
//	fmt.Println(res.Success, res.Leaders, res.Metrics.Messages)
//
// The elected node raises its leader flag; with the implicit variant nobody
// else needs to learn its identity. ElectExplicit appends the Corollary 14
// push-pull broadcast so every node learns the leader id.
//
// # Protocols and algorithm backends
//
// Every distributed algorithm in the repo — the four election backends
// (gilbertrs18, the paper's algorithm and what Elect runs;
// gilbertrs18-fixed, the known-tmix baseline; floodmax, the Omega(m)
// flooding baseline; kpprt, the sublinear candidate-sampling election of
// Kutten et al.) plus the dissemination substrates (pushpull, bfstree,
// aggregate) — is a registered protocol of the generic engine
// (internal/engine), runnable by name through one entry point:
//
//	rep, err := wcle.Run("pushpull", g,
//	    wcle.ProtocolConfig{Rumor: 9}, wcle.AlgorithmOptions{Seed: 7})
//	// rep.Result: per-node outputs, per-node send counts, rounds, metrics
//	// rep.Election: non-nil when the protocol is an election backend
//
// Protocols lists the registry; RunMany runs sharded batches. The same
// contract holds on every delivery plane: same (protocol, graph, seed)
// produce identical outputs and per-node message counts on the in-process
// sim and the wire-level TCP cluster, with and without fault planes —
// including the Byzantine plane, whose forged bytes replay identically on
// both (ProtocolConfig.Defend wraps any protocol in the committee-sampled
// validation defense).
// Every entry point takes the same per-run options (Options,
// AlgorithmOptions and ProtocolOptions name one type). Every election
// backend is built from the flat ProtocolConfig; Elect and ElectExplicit
// stay as the entry points typed for the paper's algorithm, because they
// take its full Config (message mode, ablations, test hooks) and return
// its native Result:
//
//	rep, err := wcle.Run("kpprt", g, wcle.ProtocolConfig{},
//	    wcle.AlgorithmOptions{Seed: 7})
//	// rep.Election.Leaders, rep.Election.Metrics.Messages
//
// # Packages
//
// The root package is a facade over the internal packages: internal/core
// (the paper's algorithm), internal/engine (the generic protocol contract
// and registry, with the push-pull and BFS-tree substrates), internal/algo
// (the election backends, registered in the engine), internal/sim (the
// synchronous CONGEST engine), internal/graph (families and the
// lower-bound constructions), internal/spectral (mixing times and
// conductance), internal/protocol (CONGEST message plumbing),
// internal/baseline, internal/lowerbound, internal/serve (the electd
// service layer), and internal/experiments (the E1-E23 suite described in DESIGN.md, run on a
// parallel worker-pool harness and rendered into EXPERIMENTS.md by
// cmd/benchsuite). README.md has the CLI quickstart.
package wcle
