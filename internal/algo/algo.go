package algo

import (
	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/protocol"
	"wcle/internal/sim"
)

// Outcome is the backend-independent summary every algorithm reports.
// Backend-specific detail rides along in Detail.
type Outcome struct {
	// Algorithm is the registry name of the backend that produced this.
	Algorithm string
	// Leaders lists node indices that declared leadership. Success means
	// exactly one.
	Leaders   []int
	LeaderIDs []protocol.ID
	Success   bool
	// Explicit reports whether the election is explicit: every node learns
	// the leader's id (FloodMax), not just the leader itself (implicit
	// election, the paper's setting).
	Explicit bool
	// Contenders counts the nodes that actively competed: self-selected
	// contenders (gilbertrs18), sampled candidates (kpprt), or every node
	// (floodmax).
	Contenders int
	// LeaderRound is the round of the (first) self-election, -1 if none.
	LeaderRound int
	// Rounds is the simulated round at which all activity ceased.
	Rounds int
	// Metrics is the sim-level cost accounting of the run.
	Metrics sim.Metrics
	// Detail is the backend's native result (*core.Result,
	// *baseline.FloodMaxResult, *SublinearResult), for callers that want
	// more than the common summary.
	Detail interface{}
}

// Algorithm is one election protocol runnable on the sim delivery planes.
// Implementations must be pure functions of (graph, options): all
// randomness flows from engine.Options.Seed through the per-node sim
// streams, so a run replays byte-identically. Instances are cheap,
// immutable configuration holders and safe for concurrent use; all per-run
// state lives inside Run.
type Algorithm interface {
	// Name returns the backend's registry name.
	Name() string
	// Run executes one election on g.
	Run(g *graph.Graph, opts engine.Options) (*Outcome, error)
}
