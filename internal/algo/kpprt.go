package algo

import (
	"fmt"
	"math"
	"math/bits"

	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/protocol"
	"wcle/internal/sim"
)

// This file implements the kpprt backend: a KPPRT-style sublinear
// randomized election (Kutten, Pandurangan, Peleg, Robinson, Trehan,
// "Sublinear Bounds for Randomized Leader Election") adapted to the
// anonymous port-numbered CONGEST model of internal/sim.
//
// The protocol in three moves:
//
//  1. Candidate sampling. Every node independently becomes a candidate
//     with probability min(1, C1 ln n / n) and draws a random id from
//     [1, n^4] — Theta(log n) candidates w.h.p., at least one with
//     probability 1 - n^-C1.
//  2. Referee committees. Each candidate announces its id to a committee
//     of r = ceil(C2 sqrt(n ln n)) referees. On a complete graph the
//     committee is r distinct uniformly random neighbors (one hop, the
//     KPPRT setting). On other graphs referees are sampled by lazy random
//     walks of a fixed length (Hops rounds), which land near-uniformly
//     once Hops reaches the graph's mixing time — the well-connected
//     regime; the diameter-two scenario of Chatterjee–Pandurangan–
//     Robinson corresponds to two-hop sampling. Announcements record
//     their return ports so replies can retrace the path.
//  3. Referee verdicts. At the decision round a referee answers every
//     recorded announcement: "win" iff the announced id equals the
//     maximum it has seen, "lose" otherwise (late announcements are
//     answered "lose" immediately). A candidate elects itself iff every
//     one of its r announcements came back "win".
//
// Why exactly one leader: any two candidates' committees share a referee
// w.h.p. (r^2/n = C2^2 ln n, the birthday bound), and a shared referee
// answers "win" to at most one of them — so at most one candidate can
// collect all wins, and the globally maximal candidate always does (no
// referee ever sees a larger id). Message complexity is
// Theta(log n · sqrt(n log n)) = O(sqrt(n) log^{3/2} n) announcements
// plus as many replies on the complete graph; walk-sampled referees
// multiply this by the walk length.
//
// Model notes. Requiring all r replies makes the election fail-safe under
// message loss: a dropped verdict suppresses a candidate, it never
// promotes one. Walk-sampled referees are stationary-distribution
// (degree-proportional) samples, exactly like the paper's walk machinery;
// on regular graphs that is uniform. Multi-hop announcements carry their
// return path, so their size is O(log n) only while Hops is O(1) — the
// honest accounting for the general-graph mode sets the per-message cap
// to CongestCap + Hops*ceil(log2 n) bits.

// SublinearConfig parameterizes the kpprt backend. The zero value is the
// defaults.
type SublinearConfig struct {
	// C1 scales the candidate probability min(1, C1 ln n / n). 0 means 2
	// (zero candidates with probability ~n^-2).
	C1 float64
	// C2 scales the committee size ceil(C2 sqrt(n ln n)). 0 means 2.
	C2 float64
	// Hops is the referee-sampling lazy-walk length in rounds. 0 means
	// auto: direct one-hop sampling on complete graphs, 8*ceil(log2 n)
	// (the expander/mixing regime) otherwise. Poorly connected graphs
	// need an explicit Hops of order their mixing time.
	Hops int
	// Window is the referees' decision round. 0 means auto: Hops plus a
	// launch-and-congestion slack derived from the committee size.
	Window int
}

// constants resolves the sampling constants, applying the defaults.
func (c SublinearConfig) constants() (c1, c2 float64) {
	c1, c2 = c.C1, c.C2
	if c1 <= 0 {
		c1 = 2
	}
	if c2 <= 0 {
		c2 = 2
	}
	return c1, c2
}

// Message kinds of the kpprt backend.
const (
	kindAnnounce = "kpprt-announce"
	kindReply    = "kpprt-reply"
)

// kAnnounce is a candidate announcement in flight: the candidate's id,
// the remaining lazy-walk rounds, and the return ports recorded so far
// (most recent last). Forwarding reuses the object: after delivery only
// the receiving node holds a reference.
type kAnnounce struct {
	id     protocol.ID
	rounds int // lazy-walk rounds remaining
	path   []int32
	bits   int
}

func (m *kAnnounce) Bits() int    { return m.bits }
func (m *kAnnounce) Kind() string { return kindAnnounce }

// kReply is a referee verdict retracing an announcement's return path.
type kReply struct {
	win  bool
	path []int32
	bits int
}

func (m *kReply) Bits() int    { return m.bits }
func (m *kReply) Kind() string { return kindReply }

// heldWalk is an announcement resting at a node mid-walk.
type heldWalk struct {
	id         protocol.ID
	roundsLeft int
	path       []int32
}

// refereeRecord is one on-time announcement awaiting a verdict.
type refereeRecord struct {
	id   protocol.ID
	path []int32
}

// kNode is the per-node process of the kpprt backend.
type kNode struct {
	p *kParams

	initialized bool
	candidate   bool
	id          protocol.ID

	// Candidate state.
	launched  int // committee size actually launched
	wins      int
	losses    int
	leader    bool
	leadRound int
	decided   bool

	// Walk-forwarding state.
	holds []heldWalk

	// Referee state.
	records  []refereeRecord
	maxSeen  protocol.ID
	verdicts bool // verdicts sent (window passed)

	// Per-port outgoing queues serializing sends to one per port per
	// round (the CONGEST discipline); flushed front-first each round.
	outq    [][]sim.Message
	pending int
}

// kParams is the shared immutable parameter block of one run.
type kParams struct {
	n         int
	sizing    protocol.Sizing
	prob      float64 // candidate probability
	committee int     // r
	hops      int     // walk rounds (0 = direct one-hop sampling)
	window    int     // referee decision round
	deadline  int     // candidate give-up round
	portBits  int
}

// resolveParams computes the run parameters for g under cfg.
func resolveParams(g *graph.Graph, cfg SublinearConfig) (*kParams, error) {
	n := g.N()
	sizing, err := protocol.NewSizing(n)
	if err != nil {
		return nil, err
	}
	c1, c2 := cfg.constants()
	ln := math.Log(float64(n))
	r := int(math.Ceil(c2 * math.Sqrt(float64(n)*ln)))
	if r < 1 {
		r = 1
	}
	complete := true
	for v := 0; v < n; v++ {
		if g.Degree(v) != n-1 {
			complete = false
			break
		}
	}
	hops := cfg.Hops
	if hops == 0 && !complete {
		hops = 8 * bits.Len(uint(n-1))
	}
	window := cfg.Window
	if window == 0 {
		if hops == 0 {
			// Direct sampling: announcements land in round 1; a small
			// constant absorbs committee launches wider than the degree.
			window = 8
		} else {
			// Walks take exactly hops rounds plus queuing; the slack
			// covers committee launch serialization and congestion.
			window = 2*hops + r + 16
		}
	}
	return &kParams{
		n:         n,
		sizing:    sizing,
		prob:      math.Min(1, c1*ln/float64(n)),
		committee: r,
		hops:      hops,
		window:    window,
		deadline:  2*window + 4,
		portBits:  sizing.L,
	}, nil
}

// maxMessageBits is the per-message cap of a kpprt run: the CONGEST cap
// plus the recorded return path (Hops port numbers; one for direct mode).
func (p *kParams) maxMessageBits() int {
	pathHops := p.hops
	if pathHops == 0 {
		pathHops = 1
	}
	return p.sizing.CongestCap() + pathHops*p.portBits
}

func (p *kParams) announceBits(pathLen int) int {
	return p.sizing.IDBits() + p.sizing.CountBits() + pathLen*p.portBits + protocol.FlagBits
}

func (p *kParams) replyBits(pathLen int) int {
	return protocol.FlagBits + pathLen*p.portBits
}

// enqueue schedules a message on a port, respecting one send per port per
// round.
func (nd *kNode) enqueue(port int, m sim.Message) {
	nd.outq[port] = append(nd.outq[port], m)
	nd.pending++
}

// flush sends the front of every non-empty port queue and re-wakes if
// anything is left.
func (nd *kNode) flush(ctx *sim.Context) error {
	if nd.pending == 0 {
		return nil
	}
	for port := range nd.outq {
		q := nd.outq[port]
		if len(q) == 0 {
			continue
		}
		if err := ctx.Send(port, q[0]); err != nil {
			return err
		}
		copy(q, q[1:])
		nd.outq[port] = q[:len(q)-1]
		nd.pending--
	}
	if nd.pending > 0 {
		ctx.WakeAt(ctx.Round() + 1)
	}
	return nil
}

// land records an announcement arriving at its referee.
func (nd *kNode) land(ctx *sim.Context, id protocol.ID, path []int32) {
	if ctx.Round() >= nd.p.window || nd.verdicts {
		// Late: the verdict round has passed; answer "lose" immediately
		// so a shared referee can still never hand out two wins.
		nd.reply(ctx, false, path)
		return
	}
	nd.records = append(nd.records, refereeRecord{id: id, path: path})
	if id > nd.maxSeen {
		nd.maxSeen = id
	}
	ctx.WakeAt(nd.p.window)
}

// reply routes a verdict back along an announcement's recorded path. An
// empty path means the candidate is this node (a walk that never moved).
// A recorded port outside this node's degree cannot come from an honest
// walk (every hop records the port it arrived on); it is a forgery, and
// the verdict it claims to route is discarded rather than trusted.
func (nd *kNode) reply(ctx *sim.Context, win bool, path []int32) {
	if len(path) == 0 {
		nd.verdict(ctx, win)
		return
	}
	port := int(path[len(path)-1])
	if port < 0 || port >= len(nd.outq) {
		return
	}
	rest := path[:len(path)-1]
	nd.enqueue(port, &kReply{win: win, path: rest, bits: nd.p.replyBits(len(rest))})
}

// verdict counts one of this candidate's committee answers.
func (nd *kNode) verdict(ctx *sim.Context, win bool) {
	if !nd.candidate || nd.decided {
		return
	}
	if win {
		nd.wins++
	} else {
		nd.losses++
	}
	if nd.losses > 0 {
		nd.decided = true // a rival out-ranked us at a shared referee
		return
	}
	if nd.wins == nd.launched {
		nd.leader = true
		nd.leadRound = ctx.Round()
		nd.decided = true
	}
}

// stepWalk advances one held announcement by one lazy round: stay with
// probability 1/2, otherwise move through a uniformly random port. A walk
// with no rounds left lands here.
func (nd *kNode) stepWalk(ctx *sim.Context, w heldWalk) {
	if w.roundsLeft <= 0 {
		nd.land(ctx, w.id, w.path)
		return
	}
	w.roundsLeft--
	if ctx.Rand().Intn(2) == 0 { // lazy: stay
		if w.roundsLeft == 0 {
			nd.land(ctx, w.id, w.path)
			return
		}
		nd.holds = append(nd.holds, w)
		ctx.WakeAt(ctx.Round() + 1)
		return
	}
	port := ctx.Rand().Intn(ctx.Degree())
	nd.enqueue(port, &kAnnounce{id: w.id, rounds: w.roundsLeft, path: w.path,
		bits: nd.p.announceBits(len(w.path))})
}

func (nd *kNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	if !nd.initialized {
		nd.initialized = true
		nd.outq = make([][]sim.Message, ctx.Degree())
		if ctx.Rand().Float64() < nd.p.prob {
			nd.candidate = true
			nd.id = protocol.RandomID(ctx.Rand().Uint64, nd.p.n)
			nd.launch(ctx)
			ctx.WakeAt(nd.p.deadline)
		}
	}

	// Deliveries first, in port order (the inbox is sorted).
	for _, env := range inbox {
		switch m := env.Payload.(type) {
		case *kAnnounce:
			// An honest announcement never carries more remaining rounds
			// than a walk starts with, nor a path longer than the hops it
			// could have taken; anything else is a forgery and is dropped
			// (continuing it would walk — and bill — forever).
			if m.rounds < 0 || m.rounds > nd.p.hops || len(m.path) > nd.p.hops {
				continue
			}
			// Record the way back, then continue the walk from here.
			m.path = append(m.path, int32(env.Port))
			nd.stepWalk(ctx, heldWalk{id: m.id, roundsLeft: m.rounds, path: m.path})
		case *kReply:
			if len(m.path) == 0 {
				nd.verdict(ctx, m.win)
			} else {
				nd.reply(ctx, m.win, m.path)
			}
		default:
			return fmt.Errorf("algo: kpprt got unexpected message kind %q", env.Payload.Kind())
		}
	}

	// Advance walks resting here.
	if len(nd.holds) > 0 {
		holds := nd.holds
		nd.holds = nil
		for _, w := range holds {
			nd.stepWalk(ctx, w)
		}
	}

	// Referee verdicts at the window round.
	if !nd.verdicts && ctx.Round() >= nd.p.window && len(nd.records) > 0 {
		nd.verdicts = true
		for _, rec := range nd.records {
			nd.reply(ctx, rec.id == nd.maxSeen, rec.path)
		}
		nd.records = nil
	}

	// Candidate give-up deadline: missing verdicts suppress, never elect.
	if nd.candidate && !nd.decided && ctx.Round() >= nd.p.deadline {
		nd.decided = true
	}

	return nd.flush(ctx)
}

// launch creates the candidate's committee announcements. On a complete
// graph (direct mode) the committee is committee-many distinct random
// neighbors; otherwise each announcement is an independent lazy walk of
// hops rounds starting here.
func (nd *kNode) launch(ctx *sim.Context) {
	r := nd.p.committee
	if nd.p.hops == 0 {
		deg := ctx.Degree()
		if r > deg {
			r = deg
		}
		nd.launched = r
		// Partial Fisher–Yates: r distinct ports, order seed-determined.
		ports := make([]int, deg)
		for i := range ports {
			ports[i] = i
		}
		for i := 0; i < r; i++ {
			j := i + ctx.Rand().Intn(deg-i)
			ports[i], ports[j] = ports[j], ports[i]
			nd.enqueue(ports[i], &kAnnounce{id: nd.id, path: nil,
				bits: nd.p.announceBits(0)})
		}
		return
	}
	nd.launched = r
	for i := 0; i < r; i++ {
		nd.holds = append(nd.holds, heldWalk{id: nd.id, roundsLeft: nd.p.hops})
	}
	ctx.WakeAt(ctx.Round() + 1)
}

// Output is the node's decision vector [leader(0/1), candidate(0/1),
// drawn id (0 when not a candidate)].
func (nd *kNode) Output() []int64 {
	leader, candidate := int64(0), int64(0)
	if nd.leader {
		leader = 1
	}
	if nd.candidate {
		candidate = 1
	}
	return []int64{leader, candidate, int64(nd.id)}
}

// SublinearResult is the kpprt backend's native result.
type SublinearResult struct {
	// Candidates lists the self-sampled candidate node indices.
	Candidates []int
	// Leaders lists candidates that collected a full committee of wins.
	Leaders   []int
	LeaderIDs []protocol.ID
	// Committee is the resolved committee size r; Hops and Window the
	// resolved sampling walk length and referee decision round.
	Committee, Hops, Window int
	Metrics                 sim.Metrics
}

// sublinear is the registered kpprt backend, an ElectionProtocol.
type sublinear struct {
	cfg SublinearConfig
}

func newSublinear(cfg Config) ElectionProtocol {
	return sublinear{cfg: cfg.Sublinear}
}

func (a sublinear) Name() string { return KPPRT }

// Slots labels the engine-level output vector of kpprt nodes.
func (a sublinear) Slots() []string { return []string{"leader", "candidate", "id"} }

// kInstance is one kpprt run's per-node machines (engine.Instance).
type kInstance struct {
	p     *kParams
	nodes []*kNode
}

func (i *kInstance) Node(v int) engine.Node { return i.nodes[v] }

func (i *kInstance) Limits() engine.Limits {
	return engine.Limits{
		MaxMessageBits: i.p.maxMessageBits(),
		// Everything quiesces well before this; generous caps cost the
		// event-driven engine nothing.
		MaxRounds: 4*i.p.deadline + 1000,
	}
}

// Init implements engine.Protocol.
func (a sublinear) Init(g *graph.Graph) (engine.Instance, error) {
	p, err := resolveParams(g, a.cfg)
	if err != nil {
		return nil, err
	}
	nodes := make([]*kNode, g.N())
	for v := range nodes {
		nodes[v] = &kNode{p: p}
	}
	return &kInstance{p: p, nodes: nodes}, nil
}

// Finish implements ElectionProtocol.
func (a sublinear) Finish(inst engine.Instance, eres *engine.Result, opts engine.Options) (*Outcome, error) {
	ki, ok := inst.(*kInstance)
	if !ok {
		return nil, fmt.Errorf("algo: kpprt: unexpected instance type %T", inst)
	}
	p, metrics := ki.p, eres.Metrics
	res := &SublinearResult{Committee: p.committee, Hops: p.hops, Window: p.window, Metrics: metrics}
	out := &Outcome{Algorithm: KPPRT, LeaderRound: -1, Rounds: metrics.FinalRound, Metrics: metrics, Detail: res}
	for v, nd := range ki.nodes {
		if !nd.candidate {
			continue
		}
		res.Candidates = append(res.Candidates, v)
		if nd.leader {
			res.Leaders = append(res.Leaders, v)
			res.LeaderIDs = append(res.LeaderIDs, nd.id)
			if out.LeaderRound == -1 || nd.leadRound < out.LeaderRound {
				out.LeaderRound = nd.leadRound
			}
		}
	}
	out.Leaders = res.Leaders
	out.LeaderIDs = res.LeaderIDs
	out.Contenders = len(res.Candidates)
	out.Success = len(res.Leaders) == 1
	return out, nil
}
