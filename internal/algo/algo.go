package algo

import (
	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/protocol"
	"wcle/internal/sim"
)

// Outcome is the backend-independent summary every algorithm reports.
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
}

// ElectionProtocol is an engine.Protocol whose finished runs fold into an
// election Outcome. Finish reads only the engine's report of the run: the
// whole output matrix (one row per node, labeled by Slots) and the run's
// accounting. The in-process run and the cluster's merge of its shards'
// rows therefore call the same fold on the same matrix.
//
// Implementations must be pure functions of (graph, options): all
// randomness flows from engine.Options.Seed through the per-node sim
// streams, so a run replays byte-identically. Values are cheap, immutable
// configuration holders and safe for concurrent use; all per-run state
// lives in the instance Init returns.
type ElectionProtocol interface {
	engine.Protocol
	Finish(res *engine.Result) (*Outcome, error)
}

// Run executes one election of p on g: the generic engine run, then
// Finish. It returns the Outcome together with the engine-level report;
// set opts.CountSends for its per-node send counts, the currency of the
// cluster's keystone invariant.
func Run(p ElectionProtocol, g *graph.Graph, opts engine.Options) (*Outcome, *engine.Result, error) {
	res, err := engine.Run(p, g, opts)
	if err != nil {
		return nil, nil, err
	}
	out, err := p.Finish(res)
	if err != nil {
		return nil, nil, err
	}
	return out, res, nil
}

// contenderSlots labels the output vector of the implicit elections
// (gilbertrs18, gilbertrs18-fixed, kpprt): whether the node is a leader,
// whether it competed, its drawn id (0 when it did not), and the round it
// elected itself (-1 when it did not).
func contenderSlots() []string { return []string{"leader", "contender", "id", "leader_round"} }

// foldContenders is the Finish of the implicit elections: it folds rows
// labeled by contenderSlots into the Outcome of backend name.
func foldContenders(name string, res *engine.Result) *Outcome {
	out := &Outcome{Algorithm: name, LeaderRound: -1, Rounds: res.Rounds, Metrics: res.Metrics}
	for v, o := range res.Outputs {
		if o[1] == 0 {
			continue
		}
		out.Contenders++
		if o[0] == 0 {
			continue
		}
		out.Leaders = append(out.Leaders, v)
		out.LeaderIDs = append(out.LeaderIDs, protocol.ID(o[2]))
		if round := int(o[3]); out.LeaderRound == -1 || round < out.LeaderRound {
			out.LeaderRound = round
		}
	}
	out.Success = len(out.Leaders) == 1
	return out
}
