package engine

import (
	"fmt"
	"sort"

	"wcle/internal/graph"
	"wcle/internal/protocol"
	"wcle/internal/sim"
)

// gossipKind labels gossip messages.
const (
	kindRumor = "rumor"
	kindPull  = "pull"
)

type gossipMsg struct {
	rumor protocol.ID // 0 for a pull request
	bits  int
}

func (m *gossipMsg) Bits() int { return m.bits }
func (m *gossipMsg) Kind() string {
	if m.rumor != 0 {
		return kindRumor
	}
	return kindPull
}

var _ sim.Message = (*gossipMsg)(nil)

// gossipNode runs synchronous push-pull: every round each node contacts one
// uniformly random neighbor — informed nodes push the rumor, uninformed
// nodes send a pull request (answered with the rumor in the next round).
// In push-only mode uninformed nodes stay silent.
type gossipNode struct {
	sizing   protocol.Sizing
	horizon  int
	pushOnly bool

	informed   bool
	rumor      protocol.ID
	informedAt int
	replyPorts map[int]struct{}
}

func (nd *gossipNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	round := ctx.Round()
	for _, env := range inbox {
		m, ok := env.Payload.(*gossipMsg)
		if !ok {
			return fmt.Errorf("engine: pushpull: unexpected message kind %q", env.Payload.Kind())
		}
		if m.rumor != 0 {
			if !nd.informed {
				nd.informed = true
				nd.rumor = m.rumor
				nd.informedAt = round
			}
		} else if nd.informed {
			if nd.replyPorts == nil {
				nd.replyPorts = make(map[int]struct{})
			}
			nd.replyPorts[env.Port] = struct{}{}
		}
	}
	if round >= nd.horizon {
		return nil
	}
	sent := make(map[int]struct{}, 2)
	if nd.informed {
		// Answer pending pull requests, in port order: map-order iteration
		// would reorder sends between replays, and fault planes are
		// sequence-sensitive (a delay lands on the k-th send of a round).
		ports := make([]int, 0, len(nd.replyPorts))
		for port := range nd.replyPorts {
			ports = append(ports, port)
		}
		sort.Ints(ports)
		for _, port := range ports {
			if _, dup := sent[port]; dup {
				continue
			}
			sent[port] = struct{}{}
			if err := ctx.Send(port, nd.rumorMsg()); err != nil {
				return err
			}
		}
		nd.replyPorts = nil
		// Push to one random neighbor.
		port := ctx.Rand().Intn(ctx.Degree())
		if _, dup := sent[port]; !dup {
			if err := ctx.Send(port, nd.rumorMsg()); err != nil {
				return err
			}
		}
	} else if !nd.pushOnly {
		port := ctx.Rand().Intn(ctx.Degree())
		msg := &gossipMsg{bits: protocol.FlagBits}
		if err := ctx.Send(port, msg); err != nil {
			return err
		}
	}
	ctx.WakeAt(round + 1)
	return nil
}

func (nd *gossipNode) rumorMsg() *gossipMsg {
	return &gossipMsg{rumor: nd.rumor, bits: nd.sizing.IDBits() + protocol.FlagBits}
}

// Output is [informed(0/1), round the rumor arrived (0 for the source,
// meaningless when uninformed), the rumor id actually held]. The rumor
// slot is the integrity witness: under an active adversary a node can be
// "informed" by a forged rumor, and only the held id tells the two apart.
func (nd *gossipNode) Output() []int64 {
	informed := int64(0)
	if nd.informed {
		informed = 1
	}
	return []int64{informed, int64(nd.informedAt), int64(nd.rumor)}
}

// pushPullProto is the registered push-pull rumor-spreading protocol.
type pushPullProto struct {
	source   int
	rumor    protocol.ID
	horizon  int
	pushOnly bool
}

func newPushPull(cfg Config) (Protocol, error) {
	rumor := protocol.ID(cfg.Rumor)
	if rumor == 0 {
		rumor = 1
	}
	return &pushPullProto{
		source:   cfg.Source,
		rumor:    rumor,
		horizon:  cfg.Horizon,
		pushOnly: cfg.PushOnly,
	}, nil
}

func (p *pushPullProto) Name() string    { return PushPull }
func (p *pushPullProto) Slots() []string { return []string{"informed", "informed_at", "rumor"} }

func (p *pushPullProto) Init(g *graph.Graph) (Instance, error) {
	if p.source < 0 || p.source >= g.N() {
		return nil, fmt.Errorf("engine: pushpull: source %d out of range", p.source)
	}
	if p.rumor == 0 {
		return nil, fmt.Errorf("engine: pushpull: rumor id must be nonzero")
	}
	horizon := p.horizon
	if horizon <= 0 {
		horizon = g.N()
	}
	sizing, err := protocol.NewSizing(g.N())
	if err != nil {
		return nil, err
	}
	nodes := make([]*gossipNode, g.N())
	for v := range nodes {
		nodes[v] = &gossipNode{sizing: sizing, horizon: horizon, pushOnly: p.pushOnly}
	}
	nodes[p.source].informed = true
	nodes[p.source].rumor = p.rumor
	return &gossipInstance{
		nodes: nodes,
		lim:   Limits{MaxMessageBits: sizing.CongestCap(), MaxRounds: horizon + 8},
	}, nil
}

type gossipInstance struct {
	nodes []*gossipNode
	lim   Limits
}

func (i *gossipInstance) Node(v int) Node { return i.nodes[v] }
func (i *gossipInstance) Limits() Limits  { return i.lim }

// PushPullResult reports a gossip run.
type PushPullResult struct {
	// Informed counts nodes holding the rumor at the horizon.
	Informed int
	// AllInformed reports full coverage.
	AllInformed bool
	// CompletionRound is the round the last node learned the rumor (-1 if
	// coverage is incomplete).
	CompletionRound int
	Metrics         sim.Metrics
}

// FoldPushPull folds a pushpull report — in-process or reassembled by the
// cluster merge — into a PushPullResult. Output rows are [informed,
// informed_at, rumor].
func FoldPushPull(n int, eres *Result) *PushPullResult {
	res := &PushPullResult{Metrics: eres.Metrics, CompletionRound: -1}
	last := 0
	for _, o := range eres.Outputs {
		if len(o) < 2 || o[0] == 0 {
			continue
		}
		res.Informed++
		if at := int(o[1]); at > last {
			last = at
		}
	}
	res.AllInformed = res.Informed == n
	if res.AllInformed {
		res.CompletionRound = last
	}
	return res
}
