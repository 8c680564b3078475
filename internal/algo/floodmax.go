package algo

import (
	"wcle/internal/baseline"
	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/protocol"
)

// floodmax adapts internal/baseline's FloodMax to the ElectionProtocol
// contract.
type floodmax struct {
	horizon int
}

// newFloodMax reads Horizon, the decision round (0 = n).
func newFloodMax(cfg engine.Config) ElectionProtocol {
	return floodmax{horizon: cfg.Horizon}
}

func (a floodmax) Name() string { return FloodMax }

// Slots labels the engine-level output vector of floodmax nodes: whether
// the node is a leader, the largest id it saw, and its own drawn id.
func (a floodmax) Slots() []string { return []string{"leader", "max_seen", "id"} }

// Init implements engine.Protocol.
func (a floodmax) Init(g *graph.Graph) (engine.Instance, error) {
	return baseline.Build(g, a.horizon)
}

// Finish implements ElectionProtocol. Every node competes with its drawn
// id. The election is explicit when every node's max_seen is the largest
// drawn id: faults can break agreement, and a forged flood value above it
// is not agreement.
func (a floodmax) Finish(res *engine.Result) (*Outcome, error) {
	out := &Outcome{
		Algorithm:   FloodMax,
		Explicit:    true,
		Contenders:  len(res.Outputs),
		LeaderRound: -1,
		Rounds:      res.Rounds,
		Metrics:     res.Metrics,
	}
	var maxID protocol.ID
	for _, o := range res.Outputs {
		maxID = max(maxID, protocol.ID(o[2]))
	}
	for v, o := range res.Outputs {
		if o[0] != 0 {
			out.Leaders = append(out.Leaders, v)
		}
		if protocol.ID(o[1]) != maxID {
			out.Explicit = false
		}
	}
	out.Success = len(out.Leaders) == 1
	if len(out.Leaders) > 0 {
		// Leaders all decide at the horizon round (0 means n).
		out.LeaderRound = a.horizon
		if a.horizon <= 0 {
			out.LeaderRound = len(res.Outputs)
		}
	}
	if out.Success {
		out.LeaderIDs = []protocol.ID{protocol.ID(res.Outputs[out.Leaders[0]][2])}
	}
	return out, nil
}
