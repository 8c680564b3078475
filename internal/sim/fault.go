package sim

import "wcle/internal/graph"

// This file is the fault layer of the delivery plane: a pluggable adversary
// that decides the fate of every accepted send and the liveness of every
// node. All implementations are seed-deterministic: the runner resets the
// plane with a seed derived from the run seed and consults it in the same
// deterministic order under both execution modes, so a faulty run replays
// exactly like a perfect one does. The built-in planes key their per-send
// randomness by sender (see ShardAware), which additionally makes a
// sharded cluster run byte-identical to the in-process one under the same
// fault configuration.
//
// The model is the crash/omission adversary of the randomized
// leader-election literature (Kutten et al., "Sublinear Bounds for
// Randomized Leader Election"): messages may be lost or delayed and nodes
// may crash, but surviving nodes follow the protocol.

// FaultPlane is the adversary interface of the delivery plane.
type FaultPlane interface {
	// Reset binds the plane to one run. It is called once before the first
	// round with a seed derived from the run seed; stateful planes
	// (sampled crash sets, drop coins) must derive all randomness from it.
	Reset(seed int64, g *graph.Graph)

	// Fate decides an accepted send's delivery: an extra delay in rounds
	// beyond the model's one-round latency, and whether the message is
	// delivered at all. It is invoked exactly once per accepted send, in
	// the engine's deterministic apply order.
	Fate(round, from, to int) (delay int, deliver bool)

	// Crashed reports whether node is crashed (permanently stopped) at
	// round. Crashed nodes are not stepped, and deliveries to them are
	// dropped. Crashed must be monotone in round for a fixed node.
	Crashed(node, round int) bool
}

// ShardAware is the optional capability that lets a fault plane run on a
// sharded (cluster) election. A plane is shard-safe when its decisions
// are invariant under node placement: Crashed must be a pure function of
// (Reset seed, node, round), and Fate's randomness must be keyed per
// sender — node v's k-th fate consult yields the same answer whichever
// process hosts v. The engine dispatches each node's sends in the same
// deterministic order on every plane (awake nodes in ascending order,
// staged sends in Send order), so per-sender streams make a sharded run's
// fate sequence byte-identical to the in-process one; a single global
// stream (ordered by the interleaved global send sequence) does not
// survive sharding, which is why validateRemote rejects planes that do
// not declare themselves safe.
type ShardAware interface {
	ShardSafe() bool
}

// shardSafe reports whether a plane may run on a sharded election.
func shardSafe(p FaultPlane) bool {
	if p == nil {
		return true
	}
	if sa, ok := p.(ShardAware); ok {
		return sa.ShardSafe()
	}
	return false
}

// senderRands is the per-sender randomness shared by the keyed planes: a
// lazily filled table of independent streams, one per sending node. The
// seeds follow the node-stream rule (nodeSeeds) over the Reset seed and n,
// so no two senders share a stream, and since the rule depends only on
// (seed, n) every shard computes the same seeds.
type senderRands struct {
	seeds []int64
	rngs  []*Rand
}

func (s *senderRands) reset(seed int64, g *graph.Graph) {
	s.seeds = nodeSeeds(seed, g.N())
	s.rngs = make([]*Rand, g.N())
}

// at returns sender from's stream, creating it on first use (a shard only
// ever consults the streams of the nodes it hosts).
func (s *senderRands) at(from int) *Rand {
	if s.rngs[from] == nil {
		s.rngs[from] = NewRand(s.seeds[from])
	}
	return s.rngs[from]
}

// Perfect is the fault-free plane: every send is delivered after one round,
// no node crashes. A nil Config.Fault behaves identically (and skips the
// per-send interface calls entirely).
type Perfect struct{}

// Reset implements FaultPlane.
func (Perfect) Reset(int64, *graph.Graph) {}

// Fate implements FaultPlane.
func (Perfect) Fate(int, int, int) (int, bool) { return 0, true }

// Crashed implements FaultPlane.
func (Perfect) Crashed(int, int) bool { return false }

// ShardSafe implements ShardAware.
func (Perfect) ShardSafe() bool { return true }

// Drop loses each send independently with probability P. The drop coins
// are keyed per sender (one stream per sending node), so the plane is
// shard-safe: a cluster run drops exactly the sends the in-process sim
// drops for the same seed.
type Drop struct {
	P float64
	r senderRands
}

// Reset implements FaultPlane.
func (d *Drop) Reset(seed int64, g *graph.Graph) { d.r.reset(seed, g) }

// Fate implements FaultPlane.
func (d *Drop) Fate(_, from, _ int) (int, bool) { return 0, d.r.at(from).Float64() >= d.P }

// Crashed implements FaultPlane.
func (d *Drop) Crashed(int, int) bool { return false }

// ShardSafe implements ShardAware.
func (d *Drop) ShardSafe() bool { return true }

// Delay adds an independent uniform extra delay in [0, Max] rounds to each
// send (on top of the model's one-round latency), reordering messages
// across rounds while never losing them. Delays are keyed per sender, so
// the plane is shard-safe (see ShardAware).
type Delay struct {
	Max int
	r   senderRands
}

// Reset implements FaultPlane.
func (d *Delay) Reset(seed int64, g *graph.Graph) { d.r.reset(seed, g) }

// Fate implements FaultPlane.
func (d *Delay) Fate(_, from, _ int) (int, bool) {
	if d.Max <= 0 {
		return 0, true
	}
	return d.r.at(from).Intn(d.Max + 1), true
}

// Crashed implements FaultPlane.
func (d *Delay) Crashed(int, int) bool { return false }

// ShardSafe implements ShardAware.
func (d *Delay) ShardSafe() bool { return true }

// Crash permanently stops nodes at explicitly scheduled rounds: node v
// crashes at round At[v] (inclusive) and never steps, sends, or receives
// again. Messages already in flight from v still arrive.
type Crash struct {
	At map[int]int
}

// Reset implements FaultPlane.
func (c *Crash) Reset(int64, *graph.Graph) {}

// Fate implements FaultPlane.
func (c *Crash) Fate(int, int, int) (int, bool) { return 0, true }

// Crashed implements FaultPlane.
func (c *Crash) Crashed(node, round int) bool {
	at, ok := c.At[node]
	return ok && round >= at
}

// ShardSafe implements ShardAware: the crash schedule is explicit state,
// consulted identically wherever a node is hosted.
func (c *Crash) ShardSafe() bool { return true }

// CrashSample crashes a uniformly sampled fraction Frac of the nodes at
// round Round. The crash set is drawn deterministically from the Reset
// seed, so the same run seed always kills the same nodes.
type CrashSample struct {
	Frac  float64
	Round int
	at    map[int]struct{}
}

// Reset implements FaultPlane.
func (c *CrashSample) Reset(seed int64, g *graph.Graph) {
	n := g.N()
	k := int(c.Frac * float64(n))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	c.at = make(map[int]struct{}, k)
	for _, v := range NewRand(seed).Perm(n)[:k] {
		c.at[v] = struct{}{}
	}
}

// Fate implements FaultPlane.
func (c *CrashSample) Fate(int, int, int) (int, bool) { return 0, true }

// Crashed implements FaultPlane.
func (c *CrashSample) Crashed(node, round int) bool {
	if round < c.Round {
		return false
	}
	_, ok := c.at[node]
	return ok
}

// ShardSafe implements ShardAware: the crash set is a pure function of the
// Reset seed, so every shard samples the identical set.
func (c *CrashSample) ShardSafe() bool { return true }

// Partition splits the network into two sides for rounds [From, To): every
// send crossing the cut is dropped while the partition holds, and delivery
// heals completely at round To. Side membership is sampled at Reset — a
// uniform Frac of the nodes land on the minority side — so the same run
// seed always cuts the same edges. A zero To (or To <= From) means the
// partition never heals.
type Partition struct {
	// Frac is the fraction of nodes sampled onto the minority side.
	Frac float64
	// From and To bound the partitioned rounds: From <= round < To.
	From, To int
	minority map[int]struct{}
}

// Reset implements FaultPlane.
func (p *Partition) Reset(seed int64, g *graph.Graph) {
	n := g.N()
	k := int(p.Frac * float64(n))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	p.minority = make(map[int]struct{}, k)
	for _, v := range NewRand(seed).Perm(n)[:k] {
		p.minority[v] = struct{}{}
	}
}

// holds reports whether the partition is up at round.
func (p *Partition) holds(round int) bool {
	if round < p.From {
		return false
	}
	return p.To <= p.From || round < p.To
}

// Fate implements FaultPlane: cross-cut sends are lost while the
// partition holds.
func (p *Partition) Fate(round, from, to int) (int, bool) {
	if !p.holds(round) {
		return 0, true
	}
	_, fromMin := p.minority[from]
	_, toMin := p.minority[to]
	return 0, fromMin == toMin
}

// Crashed implements FaultPlane.
func (p *Partition) Crashed(int, int) bool { return false }

// ShardSafe implements ShardAware: side membership is a pure function of
// the Reset seed and Fate consults no per-send randomness.
func (p *Partition) ShardSafe() bool { return true }

// Compose chains fault planes: a send is delivered only if every plane
// delivers it, extra delays add up, and a node is crashed as soon as any
// plane crashes it. Nil and Perfect members are elided; composing zero or
// one effective plane returns the cheapest equivalent.
func Compose(planes ...FaultPlane) FaultPlane {
	var eff []FaultPlane
	for _, p := range planes {
		if p == nil {
			continue
		}
		if _, perfect := p.(Perfect); perfect {
			continue
		}
		eff = append(eff, p)
	}
	switch len(eff) {
	case 0:
		return nil
	case 1:
		return eff[0]
	}
	c := composite{planes: eff}
	var muts []Mutator
	for _, p := range eff {
		if mt, ok := p.(Mutator); ok {
			muts = append(muts, mt)
		}
	}
	if len(muts) > 0 {
		// Keep the Mutator capability visible through the composition;
		// omission-only compositions stay on the cheaper type.
		return &mutComposite{composite: c, muts: muts}
	}
	return &c
}

type composite struct {
	planes []FaultPlane
}

// Reset implements FaultPlane, deriving an independent sub-seed per member
// so the members' random streams never alias.
func (c *composite) Reset(seed int64, g *graph.Graph) {
	for i, p := range c.planes {
		p.Reset(DeriveSeed(seed, uint64(i)), g)
	}
}

// Fate implements FaultPlane. Every member is consulted even after one
// drops the send, so each plane's random stream advances identically
// whatever the other planes decide.
func (c *composite) Fate(round, from, to int) (int, bool) {
	delay, deliver := 0, true
	for _, p := range c.planes {
		d, ok := p.Fate(round, from, to)
		delay += d
		deliver = deliver && ok
	}
	return delay, deliver
}

// Crashed implements FaultPlane.
func (c *composite) Crashed(node, round int) bool {
	for _, p := range c.planes {
		if p.Crashed(node, round) {
			return true
		}
	}
	return false
}

// ShardSafe implements ShardAware: a composition is shard-safe exactly
// when every member is (each member keeps its own independent sub-seeded
// stream, so composition adds no cross-member ordering).
func (c *composite) ShardSafe() bool {
	for _, p := range c.planes {
		if !shardSafe(p) {
			return false
		}
	}
	return true
}

// FaultKind labels a fault event.
type FaultKind uint8

// Fault event kinds.
const (
	FaultDrop   FaultKind = iota // a send was lost
	FaultDelay                   // a send was delayed beyond one round
	FaultCrash                   // a node was first observed crashed
	FaultMutate                  // a send's payload was rewritten in transit
)

// String returns the kind's name.
func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultCrash:
		return "crash"
	case FaultMutate:
		return "mutate"
	default:
		return "unknown"
	}
}

// FaultEvent is one fault-plane decision made observable.
type FaultEvent struct {
	Round int
	Kind  FaultKind
	Node  int // destination (drop/delay) or the crashed node
	From  int // sender for drop/delay, -1 for crash
	Delay int // extra rounds for delay events
}

// FaultObserver receives every fault event of a run (cmd/electsim's
// FaultLog counts them).
type FaultObserver interface {
	OnFault(ev FaultEvent)
}
