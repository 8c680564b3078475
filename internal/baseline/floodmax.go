package baseline

import (
	"fmt"

	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/protocol"
	"wcle/internal/sim"
)

// idMsg carries a candidate id during flooding. The id is the payload: the
// anonymous model forbids reading sender identities off the envelope.
type idMsg struct {
	id   protocol.ID
	bits int
}

func (m *idMsg) Bits() int    { return m.bits }
func (m *idMsg) Kind() string { return "floodmax" }

var _ sim.Message = (*idMsg)(nil)

// floodNode runs FloodMax: every node draws a random id, repeatedly floods
// the largest id seen (once per improvement), and after the scheduled
// horizon the node still holding its own id as the maximum declares itself
// leader. With horizon >= diameter the true maximum wins everywhere, making
// this an explicit election: every node knows the leader's id.
type floodNode struct {
	sizing  protocol.Sizing
	horizon int

	initialized bool
	id          protocol.ID
	maxSeen     protocol.ID
	leader      bool
	done        bool
}

func (nd *floodNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	if nd.done {
		return nil
	}
	improved := false
	if !nd.initialized {
		nd.initialized = true
		nd.id = protocol.RandomID(ctx.Rand().Uint64, ctx.N())
		nd.maxSeen = nd.id
		improved = true
		ctx.WakeAt(nd.horizon)
	}
	for _, env := range inbox {
		m, ok := env.Payload.(*idMsg)
		if !ok {
			return fmt.Errorf("baseline: unexpected message kind %q", env.Payload.Kind())
		}
		if m.id > nd.maxSeen {
			nd.maxSeen = m.id
			improved = true
		}
	}
	if ctx.Round() >= nd.horizon {
		nd.leader = nd.maxSeen == nd.id
		nd.done = true
		return nil
	}
	if improved {
		for port := 0; port < ctx.Degree(); port++ {
			msg := &idMsg{id: nd.maxSeen, bits: nd.sizing.IDBits() + protocol.FlagBits}
			if err := ctx.Send(port, msg); err != nil {
				return err
			}
		}
	}
	return nil
}

// Output is the node's decision vector [leader(0/1), largest id seen,
// own drawn id].
func (nd *floodNode) Output() []int64 {
	leader := int64(0)
	if nd.leader {
		leader = 1
	}
	return []int64{leader, int64(nd.maxSeen), int64(nd.id)}
}

// FloodMaxResult reports a FloodMax run.
type FloodMaxResult struct {
	// Leaders holds the node indices that declared leadership (exactly one
	// when the horizon covers the diameter and delivery is perfect).
	Leaders []int
	// LeaderID is the elected id: the largest drawn id.
	LeaderID protocol.ID
	// AllAgree reports whether every node's maxSeen converged to LeaderID.
	AllAgree bool
	// Horizon is the resolved decision round.
	Horizon int
	Metrics sim.Metrics
}

// Instance is one run's worth of FloodMax node machines. It implements
// engine.Instance; Collect folds the post-run state into FloodMaxResult.
type Instance struct {
	nodes   []*floodNode
	horizon int
	lim     engine.Limits
}

// Build constructs the per-node machines of one FloodMax run on g.
// horizon is the number of rounds before nodes decide; 0 means n (always
// >= diameter + 1). The default round cap is horizon + 8.
func Build(g *graph.Graph, horizon int) (*Instance, error) {
	if horizon <= 0 {
		horizon = g.N()
	}
	sizing, err := protocol.NewSizing(g.N())
	if err != nil {
		return nil, err
	}
	nodes := make([]*floodNode, g.N())
	for v := range nodes {
		nodes[v] = &floodNode{sizing: sizing, horizon: horizon}
	}
	return &Instance{
		nodes:   nodes,
		horizon: horizon,
		lim:     engine.Limits{MaxMessageBits: sizing.CongestCap(), MaxRounds: horizon + 8},
	}, nil
}

// Node implements engine.Instance.
func (i *Instance) Node(v int) engine.Node { return i.nodes[v] }

// Limits implements engine.Instance.
func (i *Instance) Limits() engine.Limits { return i.lim }

// Collect folds the instance's post-run state into the native result.
func (i *Instance) Collect(metrics sim.Metrics) *FloodMaxResult {
	res := &FloodMaxResult{Metrics: metrics, AllAgree: true, Horizon: i.horizon}
	for _, nd := range i.nodes {
		res.LeaderID = max(res.LeaderID, nd.id)
	}
	for v, nd := range i.nodes {
		if nd.leader {
			res.Leaders = append(res.Leaders, v)
		}
		if nd.maxSeen != res.LeaderID {
			res.AllAgree = false
		}
	}
	return res
}

// Run executes FloodMax on g under the full run option set: Build,
// engine.Simulate, Collect.
func Run(g *graph.Graph, horizon int, opts engine.Options) (*FloodMaxResult, error) {
	inst, err := Build(g, horizon)
	if err != nil {
		return nil, err
	}
	metrics, _, err := engine.Simulate(g, inst, opts)
	if err != nil {
		return nil, fmt.Errorf("baseline: floodmax failed: %w", err)
	}
	return inst.Collect(metrics), nil
}

// FloodMax runs the baseline on g. horizon is the number of rounds before
// nodes decide; 0 means n (always >= diameter + 1).
func FloodMax(g *graph.Graph, seed int64, horizon int) (*FloodMaxResult, error) {
	return Run(g, horizon, engine.Options{Seed: seed})
}
