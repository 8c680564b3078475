package engine

// Committee-sampled validation: the Byzantine defense any registered
// protocol can opt into (Config.Defend). WithCommittee wraps a Protocol so
// every logical send of the inner protocol is transmitted as Copies
// repeated claim frames carrying the message's canonical wire encoding,
// and a receiver only delivers a claim once Quorum byte-identical copies
// arrived on the port — an unconfirmed claim is rejected. Because the
// Byzantine plane (sim.Byzantine) mutates each physical frame with fresh
// per-send randomness, an adversary's copies almost never agree: its
// forgeries and equivocations fail the cross-check, while honest traffic
// passes untouched. Repetition models the cheapest message-level
// authentication the anonymous port-numbered model supports — a receiver
// cannot verify identities (there are none), but it can verify
// consistency.
//
// The committee part is the byzcoin-shaped fast path: each node samples a
// committee of ⌈√deg⌉ of its ports from its private randomness. Once a
// payload digest has been quorum-confirmed on Quorum distinct committee
// ports, the node treats the digest as vouched and delivers further
// copies of it on first receipt, without waiting for a per-port quorum —
// broadcast-heavy protocols (floodmax flooding one max id everywhere) pay
// the full repetition cost only until their committee has attested the
// value.
//
// The wrapper is itself a Protocol, so the defense runs on every delivery
// plane — in-process, in RunMany batches, and on the sharded cluster — and
// claims are ordinary wire-registered messages (id 14), which is what
// keeps defended cluster runs byte-identical to defended sim runs.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"wcle/internal/graph"
	"wcle/internal/sim"
	"wcle/internal/wire"
)

// wireClaim is the claim frame's wire id. Part of the wire format: never
// reuse.
const wireClaim = 14

// kindClaim is the claim frame's Kind() string.
const kindClaim = "claim"

// claimHeaderBits is the accounting overhead a claim frame adds on top of
// its carried payload bytes (seq, copy index, copy count).
const claimHeaderBits = 64

// CommitteeConfig parameterizes the defense.
type CommitteeConfig struct {
	// Copies is how many physical frames carry each logical send
	// (default 3), at one frame per port per round.
	Copies int
	// Quorum is how many byte-identical copies a receiver needs before it
	// delivers a claim (default 2). Must not exceed Copies.
	Quorum int
}

// withDefaults resolves the zero value.
func (c CommitteeConfig) withDefaults() (CommitteeConfig, error) {
	if c.Copies == 0 {
		c.Copies = 3
	}
	if c.Quorum == 0 {
		c.Quorum = 2
	}
	if c.Copies < 1 || c.Copies > 255 {
		return c, fmt.Errorf("engine: committee copies %d out of range [1,255]", c.Copies)
	}
	if c.Quorum < 1 || c.Quorum > c.Copies {
		return c, fmt.Errorf("engine: committee quorum %d out of range [1,copies=%d]", c.Quorum, c.Copies)
	}
	return c, nil
}

// WithCommittee wraps a protocol in committee-sampled validation. The
// wrapped protocol keeps the inner output contract (same Slots, same
// Output vectors on honest runs) under the name "<inner>+committee".
func WithCommittee(inner Protocol, cfg CommitteeConfig) (Protocol, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &committeeProto{inner: inner, cfg: cfg}, nil
}

type committeeProto struct {
	inner Protocol
	cfg   CommitteeConfig
}

// Name implements Protocol.
func (p *committeeProto) Name() string { return p.inner.Name() + "+committee" }

// Slots implements Protocol: the defense is transparent to the decision
// vector.
func (p *committeeProto) Slots() []string { return p.inner.Slots() }

// Init implements Protocol.
func (p *committeeProto) Init(g *graph.Graph) (Instance, error) {
	inner, err := p.inner.Init(g)
	if err != nil {
		return nil, err
	}
	lim := inner.Limits()
	n := g.N()
	inst := &committeeInstance{
		nodes: make([]*committeeNode, n),
		// A claim's encoded payload can exceed the inner Bits() slightly
		// (wire framing: kind byte, length prefixes, the bits field), and
		// the header rides on top — double-plus-slack bounds both.
		lim: Limits{
			MaxMessageBits: lim.MaxMessageBits*2 + 256,
			// Each logical round costs up to Copies physical rounds per
			// port queue, plus delivery and drain slack.
			MaxRounds: lim.MaxRounds * (p.cfg.Copies + 2),
		},
	}
	for v := 0; v < n; v++ {
		inst.nodes[v] = &committeeNode{
			cfg:   p.cfg,
			inner: inner.Node(v),
			deg:   g.Degree(v),
		}
	}
	return inst, nil
}

type committeeInstance struct {
	nodes []*committeeNode
	lim   Limits
}

// Node implements Instance.
func (i *committeeInstance) Node(v int) Node { return i.nodes[v] }

// Limits implements Instance.
func (i *committeeInstance) Limits() Limits { return i.lim }

// TraceSummary implements TraceSummarizer: the defense's claim-validation
// totals across all nodes, folded into the trace at end of run. Purely
// observational — the counters are written on paths whose control flow is
// unchanged by their existence.
func (i *committeeInstance) TraceSummary() (string, map[string]int64) {
	var delivered, rejected, unconfirmed int64
	for _, n := range i.nodes {
		delivered += n.delivered
		rejected += n.rejected
		for _, b := range n.recv {
			if !b.done {
				unconfirmed++
			}
		}
	}
	return "committee", map[string]int64{
		"delivered":   delivered,
		"rejected":    rejected,
		"unconfirmed": unconfirmed,
	}
}

// claimMsg is the physical frame of the defense: one of Total copies of a
// logical send, carrying the inner message's canonical wire encoding.
type claimMsg struct {
	Seq   uint64 // sender-local logical send counter on this port
	Idx   uint8  // copy index in [0, Total)
	Total uint8  // copies the sender emits for this Seq
	Body  []byte // wire.AppendMessage encoding of the inner message
}

// Bits implements sim.Message.
func (c *claimMsg) Bits() int { return claimHeaderBits + 8*len(c.Body) }

// Kind implements sim.Message.
func (c *claimMsg) Kind() string { return kindClaim }

func init() {
	wire.Register(wireClaim, wire.MsgCodec{
		Kind: kindClaim,
		Append: func(buf []byte, m sim.Message) ([]byte, error) {
			c, ok := m.(*claimMsg)
			if !ok {
				return buf, fmt.Errorf("wire: claim codec got %T", m)
			}
			buf = binary.AppendUvarint(buf, c.Seq)
			buf = append(buf, c.Idx, c.Total)
			buf = binary.AppendUvarint(buf, uint64(len(c.Body)))
			return append(buf, c.Body...), nil
		},
		Decode: func(b []byte) (sim.Message, error) {
			seq, b, err := wire.ReadUvarint(b)
			if err != nil {
				return nil, err
			}
			if len(b) < 2 {
				return nil, fmt.Errorf("%w: truncated claim header", wire.ErrCorrupt)
			}
			idx, total := b[0], b[1]
			body, b, err := wire.ReadBytes(b[2:])
			if err != nil {
				return nil, err
			}
			if len(b) != 0 {
				return nil, fmt.Errorf("%w: %d trailing bytes in claim message", wire.ErrCorrupt, len(b))
			}
			// The body stays opaque here: it is cross-checked bytes-first
			// and only decoded as an inner message once a quorum confirms
			// it. Copy it out of the frame buffer.
			return &claimMsg{Seq: seq, Idx: idx, Total: total, Body: append([]byte(nil), body...)}, nil
		},
	})
}

// digest is the payload fingerprint claims are cross-checked by.
func digestOf(body []byte) uint64 {
	h := fnv.New64a()
	h.Write(body)
	return h.Sum64()
}

// portSeq keys one logical send at the receiver.
type portSeq struct {
	port int
	seq  uint64
}

// claimBucket accumulates the copies of one logical send.
type claimBucket struct {
	counts map[uint64]int    // digest -> copies seen
	bodies map[uint64][]byte // digest -> first body seen
	from   int               // sender stamp of the first copy (DebugFrom)
	done   bool              // delivered or rejected for good
}

// delivery is a confirmed claim waiting to enter the inner inbox.
type delivery struct {
	port int
	seq  uint64
	from int
	msg  sim.Message
}

// committeeNode wraps one inner state machine.
type committeeNode struct {
	cfg   CommitteeConfig
	inner Node
	deg   int

	started   bool
	firstStep bool
	committee map[int]struct{} // sampled validation ports

	seq  []uint64        // next outgoing logical seq per port
	outq [][]sim.Message // pending physical frames per port, FIFO

	innerWakes []int // pending inner wake rounds, ascending

	recv    map[portSeq]*claimBucket
	vouched map[uint64]map[int]struct{} // digest -> confirming committee ports
	ready   []delivery                  // confirmed, not yet handed to inner

	// Observational validation counters (see TraceSummary).
	delivered int64 // claims confirmed and handed to the inner protocol
	rejected  int64 // confirmed claims whose body failed decode, and bad frames
}

// start samples the committee on first step. Drawing from the node's
// private stream keeps the sample deterministic per (seed, node) on every
// plane.
func (n *committeeNode) start(ctx *sim.Context) {
	n.started = true
	n.firstStep = true
	n.seq = make([]uint64, n.deg)
	n.outq = make([][]sim.Message, n.deg)
	n.recv = make(map[portSeq]*claimBucket)
	n.vouched = make(map[uint64]map[int]struct{})
	k := int(math.Ceil(math.Sqrt(float64(n.deg))))
	if k < n.cfg.Quorum {
		k = n.cfg.Quorum
	}
	if k > n.deg {
		k = n.deg
	}
	n.committee = make(map[int]struct{}, k)
	for _, p := range ctx.Rand().Perm(n.deg)[:k] {
		n.committee[p] = struct{}{}
	}
}

// ingest files one received frame and confirms its claim when the quorum
// (or the vouch fast path) is met. Frames that are not claims, claim
// headers inconsistent with the run's configuration, and confirmed bodies
// that no longer decode are rejected — exactly the unconfirmed-claim
// rejection the defense exists for.
func (n *committeeNode) ingest(env sim.Envelope) {
	c, ok := env.Payload.(*claimMsg)
	if !ok || int(c.Total) != n.cfg.Copies || int(c.Idx) >= n.cfg.Copies {
		n.rejected++
		return
	}
	key := portSeq{port: env.Port, seq: c.Seq}
	b := n.recv[key]
	if b == nil {
		b = &claimBucket{
			counts: make(map[uint64]int, 1),
			bodies: make(map[uint64][]byte, 1),
			from:   env.From,
		}
		n.recv[key] = b
	}
	d := digestOf(c.Body)
	b.counts[d]++
	if _, seen := b.bodies[d]; !seen {
		b.bodies[d] = c.Body
	}
	confirmed := b.counts[d] >= n.cfg.Quorum
	if confirmed {
		// Quorum on a committee port attests the digest; Quorum committee
		// attestations vouch it globally for this node.
		if _, on := n.committee[env.Port]; on {
			set := n.vouched[d]
			if set == nil {
				set = make(map[int]struct{}, n.cfg.Quorum)
				n.vouched[d] = set
			}
			set[env.Port] = struct{}{}
		}
	} else {
		// Vouch fast path: a committee-attested digest delivers on first
		// receipt.
		confirmed = len(n.vouched[d]) >= n.cfg.Quorum
	}
	if !confirmed || b.done {
		return
	}
	b.done = true
	msg, err := wire.DecodeMessage(c.Body)
	if err != nil {
		n.rejected++
		return // a quorum of identical garbage still fails total decode
	}
	n.delivered++
	n.ready = append(n.ready, delivery{port: env.Port, seq: c.Seq, from: b.from, msg: msg})
}

// collect pops at most one confirmed delivery per port (lowest seq first),
// preserving the sim's one-envelope-per-port-per-round inbox shape for the
// inner protocol.
func (n *committeeNode) collect() []sim.Envelope {
	if len(n.ready) == 0 {
		return nil
	}
	sort.Slice(n.ready, func(i, j int) bool {
		if n.ready[i].port != n.ready[j].port {
			return n.ready[i].port < n.ready[j].port
		}
		return n.ready[i].seq < n.ready[j].seq
	})
	var inbox []sim.Envelope
	var rest []delivery
	lastPort := -1
	for _, del := range n.ready {
		if del.port == lastPort {
			rest = append(rest, del)
			continue
		}
		lastPort = del.port
		inbox = append(inbox, sim.Envelope{Port: del.port, From: del.from, Payload: del.msg})
	}
	n.ready = rest
	return inbox
}

// popInnerWakes reports whether an inner wake was due at round and drops
// every due entry.
func (n *committeeNode) popInnerWakes(round int) bool {
	due := false
	keep := n.innerWakes[:0]
	for _, w := range n.innerWakes {
		if w <= round {
			due = true
			continue
		}
		keep = append(keep, w)
	}
	n.innerWakes = keep
	return due
}

// Step implements sim.Process (via Node).
func (n *committeeNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	if !n.started {
		n.start(ctx)
	}
	for _, env := range inbox {
		n.ingest(env)
	}
	innerInbox := n.collect()
	round := ctx.Round()
	if n.popInnerWakes(round) || len(innerInbox) > 0 || n.firstStep {
		n.firstStep = false
		restore := ctx.Capture(
			func(port int, m sim.Message) error { return n.captureSend(port, m) },
			func(r int) { n.innerWakes = append(n.innerWakes, r) },
		)
		err := n.inner.Step(ctx, innerInbox)
		restore()
		if err != nil {
			return err
		}
	}
	pendingOut := false
	for port, q := range n.outq {
		if len(q) == 0 {
			continue
		}
		if err := ctx.Send(port, q[0]); err != nil {
			return err
		}
		q[0] = nil
		n.outq[port] = q[1:]
		if len(n.outq[port]) > 0 {
			pendingOut = true
		}
	}
	if pendingOut || len(n.ready) > 0 {
		ctx.WakeAt(round + 1)
	}
	if len(n.innerWakes) > 0 {
		min := n.innerWakes[0]
		for _, w := range n.innerWakes[1:] {
			if w < min {
				min = w
			}
		}
		ctx.WakeAt(min)
	}
	return nil
}

// captureSend turns one logical inner send into Copies queued claim
// frames. Copies share the Body slice (claims never mutate it); each is a
// distinct Message value, so an active adversary forges each physical
// frame independently — which is exactly what the receive quorum catches.
func (n *committeeNode) captureSend(port int, m sim.Message) error {
	body, err := wire.AppendMessage(nil, m)
	if err != nil {
		return fmt.Errorf("engine: committee defense needs a wire codec for %q: %w", m.Kind(), err)
	}
	s := n.seq[port]
	n.seq[port]++
	for i := 0; i < n.cfg.Copies; i++ {
		n.outq[port] = append(n.outq[port], &claimMsg{
			Seq:   s,
			Idx:   uint8(i),
			Total: uint8(n.cfg.Copies),
			Body:  body,
		})
	}
	return nil
}

// Output implements Node.
func (n *committeeNode) Output() []int64 { return n.inner.Output() }
