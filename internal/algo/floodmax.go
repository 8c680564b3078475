package algo

import (
	"fmt"

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

// Slots labels the engine-level output vector of floodmax nodes.
func (a floodmax) Slots() []string { return []string{"leader", "max_seen"} }

// Init implements engine.Protocol.
func (a floodmax) Init(g *graph.Graph) (engine.Instance, error) {
	return baseline.Build(g, a.horizon)
}

// Finish implements ElectionProtocol.
func (a floodmax) Finish(inst engine.Instance, eres *engine.Result, opts engine.Options) (*Outcome, error) {
	bi, ok := inst.(*baseline.Instance)
	if !ok {
		return nil, fmt.Errorf("algo: floodmax: unexpected instance type %T", inst)
	}
	res := bi.Collect(eres.Metrics, opts.Remote != nil)
	// Every node competes with its drawn id; a sharded run reports only
	// the locally hosted competitors, so the cluster merge sums back to n.
	contenders := len(eres.Outputs)
	if opts.Remote != nil {
		contenders = 0
		for v := 0; v < len(eres.Outputs); v++ {
			if opts.Remote.Local(v) {
				contenders++
			}
		}
	}
	out := &Outcome{
		Algorithm: FloodMax,
		Leaders:   res.Leaders,
		Success:   len(res.Leaders) == 1,
		// FloodMax is an explicit election only when every node converged
		// to the winning id (faults can break agreement).
		Explicit:    res.AllAgree,
		Contenders:  contenders,
		LeaderRound: -1,
		Rounds:      res.Metrics.FinalRound,
		Metrics:     res.Metrics,
		Detail:      res,
	}
	if len(res.Leaders) > 0 {
		// Leaders all decide at the horizon round.
		out.LeaderRound = res.Horizon
	}
	if len(res.Leaders) == 1 {
		// Under perfect delivery the unique leader holds the global max id.
		out.LeaderIDs = []protocol.ID{res.LeaderID}
	}
	return out, nil
}
