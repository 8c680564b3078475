package engine

import (
	"fmt"

	"wcle/internal/graph"
	"wcle/internal/protocol"
	"wcle/internal/sim"
)

type joinMsg struct {
	bits int
}

func (m *joinMsg) Bits() int    { return m.bits }
func (m *joinMsg) Kind() string { return "join" }

var _ sim.Message = (*joinMsg)(nil)

// bfsNode builds a BFS spanning tree by flooding: the first JOIN received
// fixes the parent port; the node then floods JOIN on all other ports.
type bfsNode struct {
	isRoot     bool
	started    bool
	joined     bool
	parentPort int
	depth      int
}

func (nd *bfsNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	flood := func(skip int) error {
		for port := 0; port < ctx.Degree(); port++ {
			if port == skip {
				continue
			}
			if err := ctx.Send(port, &joinMsg{bits: protocol.FlagBits}); err != nil {
				return err
			}
		}
		return nil
	}
	if nd.isRoot && !nd.started {
		nd.started = true
		nd.joined = true
		nd.parentPort = -1
		return flood(-1)
	}
	for _, env := range inbox {
		if _, ok := env.Payload.(*joinMsg); !ok {
			return fmt.Errorf("engine: bfstree: unexpected message kind %q", env.Payload.Kind())
		}
		if !nd.joined {
			nd.joined = true
			nd.parentPort = env.Port
			nd.depth = ctx.Round()
			return flood(env.Port)
		}
	}
	return nil
}

// Output is [joined(0/1), parent port (-1 root, meaningless when not
// joined), BFS depth]. Ports instead of node ids: nodes are anonymous, so
// resolving a port to a neighbor index is the caller's graph-side job
// (FoldBFSTree does it to build TreeResult.Parent).
func (nd *bfsNode) Output() []int64 {
	joined := int64(0)
	if nd.joined {
		joined = 1
	}
	return []int64{joined, int64(nd.parentPort), int64(nd.depth)}
}

// bfsTreeProto is the registered BFS spanning-tree protocol.
type bfsTreeProto struct {
	root int
}

func newBFSTree(cfg Config) (Protocol, error) {
	return &bfsTreeProto{root: cfg.Root}, nil
}

func (p *bfsTreeProto) Name() string    { return BFSTree }
func (p *bfsTreeProto) Slots() []string { return []string{"joined", "parent_port", "depth"} }

func (p *bfsTreeProto) Init(g *graph.Graph) (Instance, error) {
	if p.root < 0 || p.root >= g.N() {
		return nil, fmt.Errorf("engine: bfstree: root %d out of range", p.root)
	}
	sizing, err := protocol.NewSizing(g.N())
	if err != nil {
		return nil, err
	}
	nodes := make([]*bfsNode, g.N())
	for v := range nodes {
		nodes[v] = &bfsNode{isRoot: v == p.root}
	}
	return &bfsInstance{
		nodes: nodes,
		lim:   Limits{MaxMessageBits: sizing.CongestCap(), MaxRounds: g.N() + 8},
	}, nil
}

type bfsInstance struct {
	nodes []*bfsNode
	lim   Limits
}

func (i *bfsInstance) Node(v int) Node { return i.nodes[v] }
func (i *bfsInstance) Limits() Limits  { return i.lim }

// TreeResult reports a BFS spanning-tree construction.
type TreeResult struct {
	// Parent maps node -> parent node (-1 for the root, -2 if unreached).
	Parent []int
	// Depth maps node -> BFS depth (root 0).
	Depth []int
	// Complete reports whether every node joined.
	Complete bool
	Metrics  sim.Metrics
}

// FoldBFSTree folds a bfstree report into a TreeResult, resolving each
// node's parent port back to a neighbor index through g. Output rows are
// [joined, parent_port, depth].
func FoldBFSTree(g *graph.Graph, eres *Result) *TreeResult {
	res := &TreeResult{
		Parent:   make([]int, g.N()),
		Depth:    make([]int, g.N()),
		Complete: true,
		Metrics:  eres.Metrics,
	}
	for v := 0; v < g.N(); v++ {
		var o []int64
		if v < len(eres.Outputs) {
			o = eres.Outputs[v]
		}
		switch {
		case len(o) < 3 || o[0] == 0:
			res.Parent[v] = -2
			res.Depth[v] = -1
			res.Complete = false
		case o[1] == -1:
			res.Parent[v] = -1
			res.Depth[v] = 0
		default:
			res.Parent[v] = g.NeighborAt(v, int(o[1]))
			res.Depth[v] = int(o[2])
		}
	}
	return res
}
