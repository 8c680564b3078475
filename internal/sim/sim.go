// Package sim is a synchronous message-passing simulator for the paper's
// computing model (Section 1): an anonymous port-numbered network running in
// lockstep rounds under the CONGEST discipline. In every round each node may
// send at most one message per incident edge per direction, and each message
// is validated against a configurable bit cap (O(log n) in CONGEST mode,
// O(log^3 n) in the paper's Lemma 12 large-message mode).
//
// The engine is composed of three layers (the delivery plane):
//
//   - a scheduler (scheduler.go) owning round advancement and the wake
//     heap, so rounds in which no node is awake are skipped in O(1);
//   - a transport (transport.go) buffering accepted sends double-buffered
//     straight into the next round's inboxes (flat per-round batches for
//     fault-delayed sends) and delivering by pointer swap;
//   - a fault plane (fault.go), a pluggable adversary deciding the fate of
//     every send (Perfect, Drop, Delay) and the liveness of every node
//     (Crash, CrashSample), all seed-deterministic.
//
// A run steps its awake nodes one at a time, in node order, on one
// goroutine, so a run is deterministic and its nodes may share per-run
// state without locking. For bulk independent runs, MultiRunner (multi.go)
// shards whole simulations across a worker pool.
package sim

import (
	"errors"
	"fmt"
	"sort"

	"wcle/internal/graph"
	"wcle/internal/obs"
)

// Message is a protocol payload. Bits reports the message size for CONGEST
// accounting; Kind labels the message class for per-kind metrics.
type Message interface {
	Bits() int
	Kind() string
}

// Envelope is a delivered message. Port is the receiving port at the
// destination node. From identifies the sender for observers and debugging
// only; the model is anonymous, so From is -1 unless Config.DebugFrom is
// set.
type Envelope struct {
	Port    int
	From    int
	Payload Message
}

// Process is the per-node protocol logic. Step is invoked whenever the node
// is awake: at any round where it has incoming messages or a scheduled
// wake-up. The inbox is sorted by receiving port and contains at most one
// envelope per port. Step must not retain the inbox slice.
type Process interface {
	Step(ctx *Context, inbox []Envelope) error
}

// Observer receives a callback for every accepted send. Used by the trace
// recorder and the lower-bound clique-communication-graph tracker. Sends
// later lost by the fault plane are still observed: the sender paid for
// them, and message complexity counts them.
type Observer interface {
	OnSend(round int, from, fromPort, to, toPort int, m Message)
}

// Config parameterizes a run.
type Config struct {
	Graph *graph.Graph

	// Seed derives all per-node randomness (and the fault plane's)
	// deterministically.
	Seed int64

	// MaxRounds aborts the run (with an error) if simulated time exceeds
	// it. 0 means DefaultMaxRounds.
	MaxRounds int

	// MaxMessageBits, when positive, rejects any message whose Bits()
	// exceed it (a protocol bug under the chosen model).
	MaxMessageBits int

	// MessageBudget, when positive, silently drops sends beyond the budget
	// (counted in Metrics.Dropped). This models the lower-bound experiments
	// where an algorithm is only allowed a fixed message budget.
	MessageBudget int64

	// LeanMetrics drops the per-kind accounting from the send hot path:
	// Metrics.ByKind stays empty and the send path makes no Kind() call
	// or per-kind tally per message. The experiment harness enables it
	// for bulk trial runs; an Observer can still count kinds.
	LeanMetrics bool

	// DebugFrom stamps the sender's node index on delivered envelopes.
	// Default runs keep Envelope.From == -1: the model is anonymous, and
	// a protocol must not be able to read sender identities by accident.
	DebugFrom bool

	// Fault, when non-nil, is the adversary of the run. nil means Perfect
	// delivery (and skips the per-send fault calls entirely).
	Fault FaultPlane

	// Remote, when non-nil, makes this Runner host one shard of a
	// distributed run (see remote.go): only nodes the plane reports as
	// Local are woken and stepped, cross-shard sends travel through the
	// plane, and round advancement goes through its barrier. Fault
	// planes must be shard-safe (see ShardAware); message budgets are
	// rejected on sharded runs.
	Remote RemotePlane

	// Observer, when non-nil, is invoked for every accepted send.
	Observer Observer

	// FaultObserver, when non-nil, is invoked for every fault event
	// (drops, delays, crashes).
	FaultObserver FaultObserver

	// Tracer, when non-nil, records per-busy-round compute/flush spans,
	// one fault/<kind> instant per busy round that dropped, delayed or
	// mutated sends (args {"count": n}), one fault/crash instant per
	// crashed node, and (on sharded runs) quiesce-barrier spans. Per-send
	// fault detail goes to FaultObserver instead. Strictly observational:
	// it reads the wall clock but never feeds timing back into
	// scheduling, so a traced run stays byte-identical to an untraced one
	// at the same seed.
	Tracer *obs.Tracer
}

// DefaultMaxRounds bounds runaway protocols.
const DefaultMaxRounds = 50_000_000

// faultSeedStream is the DeriveSeed stream index of the fault plane's
// randomness, far outside the per-node index range.
const faultSeedStream = ^uint64(0) - 0x5EED

// Metrics aggregates the model-level costs of a run. Messages and Bits
// count accepted sends (the paper's message complexity); Dropped counts
// sends suppressed by the message budget; FaultDrops and Delayed count the
// fault plane's interventions (sends it lost — including deliveries to
// crashed nodes — and sends it delayed beyond one round); Mutated counts
// sends an active adversary rewrote in transit (mutations that destroyed
// the message are additionally counted in FaultDrops, preserving
// Messages == Deliveries + FaultDrops at quiescence).
type Metrics struct {
	Messages   int64
	Bits       int64
	Dropped    int64
	FaultDrops int64
	Delayed    int64
	Mutated    int64
	Deliveries int64
	BusyRounds int64
	FinalRound int
	ByKind     map[string]int64
}

// ErrCongest is returned by Context.Send on a CONGEST violation: two sends
// on the same port in one round, an oversized message, or an invalid port.
var ErrCongest = errors.New("sim: CONGEST violation")

// ErrMaxRounds is returned by Runner.Run when MaxRounds is exceeded.
var ErrMaxRounds = errors.New("sim: exceeded MaxRounds")

// stagedSend is a send buffered in the sender's context until the end of
// the round, when the runner moves it into the transport's flat queue.
type stagedSend struct {
	port    int
	payload Message
}

// Context is the per-node handle passed to Step. It is only valid during
// the Step invocation (except for the stable accessors Node/N/Degree/Rand).
type Context struct {
	r    *Runner
	node int
	rng  *Rand

	round    int
	sentPort []bool
	out      []stagedSend
	wakes    []int

	capSend func(port int, m Message) error
	capWake func(round int)
}

// Node returns this node's index (used for instrumentation; the protocol
// identities of the paper are the random ids chosen by the protocol).
func (c *Context) Node() int { return c.node }

// N returns the network size, which nodes know in the paper's model.
func (c *Context) N() int { return c.r.g.N() }

// Degree returns this node's degree (its number of ports).
func (c *Context) Degree() int { return c.r.g.Degree(c.node) }

// Round returns the current round.
func (c *Context) Round() int { return c.round }

// Rand returns this node's private deterministic randomness source.
func (c *Context) Rand() *Rand { return c.rng }

// Send transmits m on the given port this round. At most one send per port
// per round is allowed; m must respect the configured bit cap. Sends beyond
// the configured message budget are silently dropped (and counted).
func (c *Context) Send(port int, m Message) error {
	if port < 0 || port >= c.Degree() {
		return fmt.Errorf("%w: node %d port %d out of range [0,%d)", ErrCongest, c.node, port, c.Degree())
	}
	if c.capSend != nil {
		// Captured sends are logical: the capturing wrapper owns the
		// physical frames (and their CONGEST accounting) itself.
		return c.capSend(port, m)
	}
	if c.sentPort[port] {
		return fmt.Errorf("%w: node %d sent twice on port %d in round %d", ErrCongest, c.node, port, c.round)
	}
	if c.r.cfg.MaxMessageBits > 0 && m.Bits() > c.r.cfg.MaxMessageBits {
		return fmt.Errorf("%w: node %d message kind %q of %d bits exceeds cap %d",
			ErrCongest, c.node, m.Kind(), m.Bits(), c.r.cfg.MaxMessageBits)
	}
	c.sentPort[port] = true
	c.out = append(c.out, stagedSend{port: port, payload: m})
	return nil
}

// WakeAt schedules this node to be stepped at the given future round.
func (c *Context) WakeAt(round int) {
	if round <= c.round {
		round = c.round + 1
	}
	if c.capWake != nil {
		c.capWake(round)
		return
	}
	c.wakes = append(c.wakes, round)
}

// Capture reroutes this context's Send and WakeAt calls to the given
// hooks until the returned restore function runs. A protocol wrapper
// (engine's committee validation) installs it around the inner
// protocol's Step so inner sends become logical intents the wrapper
// re-transmits under its own framing: captured sends skip the per-port
// CONGEST bookkeeping and the bit cap (the wrapper enforces both on the
// frames it actually emits), captured wakes arrive pre-clamped to a
// strictly future round. Either hook may be nil to leave that path
// un-captured. Captures nest; restore must run before Step returns.
func (c *Context) Capture(onSend func(port int, m Message) error, onWake func(round int)) (restore func()) {
	prevSend, prevWake := c.capSend, c.capWake
	if onSend != nil {
		c.capSend = onSend
	}
	if onWake != nil {
		c.capWake = onWake
	}
	return func() { c.capSend, c.capWake = prevSend, prevWake }
}

// Runner executes processes on a graph, composing the scheduler, transport
// and fault layers. Create with NewRunner; a Runner can be resumed
// (Wake + Run) after quiescence, which the explicit-election and
// lower-bound experiments use for phased protocols.
type Runner struct {
	cfg   Config
	g     *graph.Graph
	procs []Process
	ctxs  []*Context

	round int
	sched *scheduler
	tr    *transport
	fault FaultPlane
	mut   Mutator // r.fault's Mutator capability, cached off the hot path

	awake      []int  // reused per-round scratch
	crashNoted []bool // fault events emitted once per crashed node
	// faultTally counts this round's per-send fault events by kind for
	// the tracer (the crash slot stays 0: crashes are traced per node).
	faultTally [FaultMutate + 1]int64

	// metrics accumulates every counter but ByKind, which Metrics builds
	// from kinds, the per-kind send tallies in first-sent order.
	metrics Metrics
	kinds   []kindCount
	stepErr error
}

// kindCount is the number of sends of one message kind.
type kindCount struct {
	kind string
	n    int64
}

// NewRunner validates the configuration and prepares a run. procs must have
// one Process per graph node.
func NewRunner(cfg Config, procs []Process) (*Runner, error) {
	if cfg.Graph == nil {
		return nil, errors.New("sim: Config.Graph is required")
	}
	if len(procs) != cfg.Graph.N() {
		return nil, fmt.Errorf("sim: %d processes for %d nodes", len(procs), cfg.Graph.N())
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	if cfg.Remote != nil {
		if err := validateRemote(cfg); err != nil {
			return nil, err
		}
	}
	r := &Runner{
		cfg:   cfg,
		g:     cfg.Graph,
		procs: procs,
		ctxs:  make([]*Context, cfg.Graph.N()),
		sched: newScheduler(),
		tr:    newTransport(cfg.Graph.N()),
		fault: cfg.Fault,
	}
	if _, perfect := r.fault.(Perfect); perfect {
		r.fault = nil // same semantics, no per-send interface calls
	}
	if r.fault != nil {
		r.fault.Reset(DeriveSeed(cfg.Seed, faultSeedStream), r.g)
		r.crashNoted = make([]bool, cfg.Graph.N())
		if mt, ok := r.fault.(Mutator); ok {
			r.mut = mt
		}
	}
	// Every shard builds every node's context, so the streams (and their
	// collision rule) are the same on every shard.
	for v, seed := range nodeSeeds(cfg.Seed, len(r.ctxs)) {
		r.ctxs[v] = &Context{
			r:        r,
			node:     v,
			rng:      NewRand(seed),
			sentPort: make([]bool, cfg.Graph.Degree(v)),
		}
	}
	return r, nil
}

// Wake schedules node to step at the given round (must be >= current
// round). On a sharded run, wakes for nodes this shard does not host are
// ignored: their hosting shard schedules them.
func (r *Runner) Wake(node, round int) {
	if r.cfg.Remote != nil && !r.cfg.Remote.Local(node) {
		return
	}
	if round < r.round {
		round = r.round
	}
	r.sched.wake(node, round)
}

// WakeAll schedules every node at the given round.
func (r *Runner) WakeAll(round int) {
	for v := 0; v < r.g.N(); v++ {
		r.Wake(v, round)
	}
}

// Round returns the current simulated round.
func (r *Runner) Round() int { return r.round }

// Metrics returns a copy of the accumulated metrics, with a fresh ByKind
// map.
func (r *Runner) Metrics() Metrics {
	m := r.metrics
	m.ByKind = make(map[string]int64, len(r.kinds))
	for _, k := range r.kinds {
		m.ByKind[k.kind] = k.n
	}
	return m
}

// countKind tallies one send of the given kind. A protocol sends only a
// few kinds, so a linear scan costs less than a map write per send.
func (r *Runner) countKind(kind string) {
	for i := range r.kinds {
		if r.kinds[i].kind == kind {
			r.kinds[i].n++
			return
		}
	}
	r.kinds = append(r.kinds, kindCount{kind: kind, n: 1})
}

// Quiet reports whether no messages are in flight and no wakes are pending.
func (r *Runner) Quiet() bool { return !r.tr.pending() && !r.sched.pending() }

// Run advances rounds until quiescence (no pending messages, no pending
// wakes) or until MaxRounds, whichever comes first. On a sharded run,
// quiescence is global: the run ends when every shard's barrier agrees
// nothing is pending anywhere.
func (r *Runner) Run() error {
	if r.cfg.Remote != nil {
		return r.runRemote()
	}
	for !r.Quiet() {
		next := r.nextEventRound()
		if next > r.cfg.MaxRounds {
			return fmt.Errorf("%w (%d), %d messages so far", ErrMaxRounds, r.cfg.MaxRounds, r.metrics.Messages)
		}
		r.round = next
		if err := r.stepRound(); err != nil {
			return err
		}
	}
	return nil
}

// nextEventRound asks the transport and the scheduler for their earliest
// events and returns the sooner, clamped to the current round.
func (r *Runner) nextEventRound() int {
	next := r.tr.nextDueRound()
	if w := r.sched.nextRound(); w >= 0 && (next == -1 || w < next) {
		next = w
	}
	if next < r.round {
		next = r.round
	}
	return next
}

// noteCrash emits the once-per-node crash event.
func (r *Runner) noteCrash(v int) {
	if r.crashNoted[v] {
		return
	}
	r.crashNoted[v] = true
	r.observeFault(FaultEvent{Round: r.round, Kind: FaultCrash, Node: v, From: -1})
}

// observeFault hands one fault event to the configured observer and
// accounts it for the tracer. Per-send events (drop, delay, mutate) are
// not rare — under a delay plane of Max 2, two sends in three are delayed
// — so the tracer gets only a per-round tally of them (see
// traceFaultTally); a crash, noted once per node, stays its own instant.
func (r *Runner) observeFault(ev FaultEvent) {
	if r.cfg.FaultObserver != nil {
		r.cfg.FaultObserver.OnFault(ev)
	}
	if tr := r.cfg.Tracer; tr.Enabled() {
		if ev.Kind == FaultCrash {
			tr.Instant("fault", ev.Kind.String(), int64(ev.Round),
				map[string]int64{"node": int64(ev.Node), "from": int64(ev.From)})
			return
		}
		r.faultTally[ev.Kind]++
	}
}

// traceFaultTally emits the round's per-send fault tallies, one
// fault/<kind> instant with args {"count": n} per kind that occurred, in
// FaultKind order, and clears them.
func (r *Runner) traceFaultTally() {
	tr := r.cfg.Tracer
	if !tr.Enabled() {
		return
	}
	for k, n := range r.faultTally {
		if n > 0 {
			tr.Instant("fault", FaultKind(k).String(), int64(r.round), map[string]int64{"count": n})
			r.faultTally[k] = 0
		}
	}
}

// acceptDelivery is the transport's destination filter: deliveries to
// crashed nodes are dropped (counted in Metrics.FaultDrops; the node's
// FaultCrash event already marks it dead, so no per-message drop events
// are emitted for them).
func (r *Runner) acceptDelivery(to int) bool {
	if !r.fault.Crashed(to, r.round) {
		return true
	}
	r.noteCrash(to)
	return false
}

func (r *Runner) stepRound() error {
	// Collect awake nodes: those with deliveries due now plus scheduled
	// wakes (minus crashed nodes).
	var accept func(int) bool
	if r.fault != nil {
		accept = r.acceptDelivery
	}
	delivered, crashDrops := r.tr.deliver(r.round, accept)
	r.metrics.FaultDrops += int64(crashDrops)
	awake := append(r.awake[:0], delivered...)
	if set := r.sched.popDue(r.round); set != nil {
		for v := range set {
			if r.fault != nil && r.fault.Crashed(v, r.round) {
				r.noteCrash(v)
				continue
			}
			if len(r.tr.inbox(v)) == 0 {
				awake = append(awake, v)
			}
		}
		r.sched.recycle(set)
	}
	r.awake = awake
	if len(awake) == 0 {
		r.tr.release()
		return nil
	}
	sort.Ints(awake)
	r.metrics.BusyRounds++
	if r.round > r.metrics.FinalRound {
		r.metrics.FinalRound = r.round
	}

	computeSp := r.cfg.Tracer.Start("sim", "compute", int64(r.round))
	computeSp.Arg("awake", int64(len(awake)))
	for _, v := range awake {
		r.stepNode(v)
		if r.stepErr != nil {
			break
		}
	}
	computeSp.End()
	r.tr.release()
	if r.stepErr != nil {
		return r.stepErr
	}

	// Move buffered sends into the transport and wakes into the scheduler
	// deterministically in node order; the fault plane rules on each send
	// here, so its random stream advances in the same order on every
	// replay.
	flushSp := r.cfg.Tracer.Start("sim", "flush", int64(r.round))
	msgsBefore := r.metrics.Messages
	for _, v := range awake {
		ctx := r.ctxs[v]
		for _, s := range ctx.out {
			r.dispatch(v, s.port, s.payload)
		}
		ctx.out = ctx.out[:0]
		for _, w := range ctx.wakes {
			r.sched.wake(v, w)
		}
		ctx.wakes = ctx.wakes[:0]
	}
	flushSp.Arg("sends", r.metrics.Messages-msgsBefore)
	flushSp.End()
	r.traceFaultTally()
	// A remote send may have failed during dispatch (stepErr is also how
	// the plane surfaces a broken connection mid-round).
	return r.stepErr
}

func (r *Runner) stepNode(v int) {
	ctx := r.ctxs[v]
	ctx.round = r.round
	for p := range ctx.sentPort {
		ctx.sentPort[p] = false
	}
	inbox := r.tr.inbox(v)
	if len(inbox) > 0 {
		sortByPort(inbox)
		r.metrics.Deliveries += int64(len(inbox))
	}
	if err := r.procs[v].Step(ctx, inbox); err != nil {
		if r.stepErr == nil {
			r.stepErr = fmt.Errorf("sim: node %d at round %d: %w", v, r.round, err)
		}
	}
}

// sortByPort orders an inbox by receiving port. Ports are unique within a
// round (one send per edge per direction), so insertion sort is exact and
// avoids sort.Slice's closure allocation on the hot path.
func sortByPort(inbox []Envelope) {
	for i := 1; i < len(inbox); i++ {
		for j := i; j > 0 && inbox[j].Port < inbox[j-1].Port; j-- {
			inbox[j], inbox[j-1] = inbox[j-1], inbox[j]
		}
	}
}

// dispatch accounts one staged send and hands it to the fault plane and the
// transport. Budget drops suppress the send entirely; fault drops lose a
// sent (and counted) message in transit.
func (r *Runner) dispatch(from, fromPort int, payload Message) {
	if r.cfg.MessageBudget > 0 && r.metrics.Messages >= r.cfg.MessageBudget {
		r.metrics.Dropped++
		return
	}
	to := r.g.NeighborAt(from, fromPort)
	toPort := r.g.BackPort(from, fromPort)
	r.metrics.Messages++
	r.metrics.Bits += int64(payload.Bits())
	if !r.cfg.LeanMetrics {
		r.countKind(payload.Kind())
	}
	if r.cfg.Observer != nil {
		r.cfg.Observer.OnSend(r.round, from, fromPort, to, toPort, payload)
	}
	// The active adversary rewrites the payload after the send is accounted
	// (the sender paid message complexity for the original) and before the
	// omission Fate; a mutation that destroyed the message is a fault drop
	// too, and observers see both events, as the metrics count both.
	if r.mut != nil {
		forged, deliver := r.mut.Mutate(r.round, from, to, payload)
		if !deliver {
			r.metrics.Mutated++
			r.metrics.FaultDrops++
			r.observeFault(FaultEvent{Round: r.round, Kind: FaultMutate, Node: to, From: from})
			r.observeFault(FaultEvent{Round: r.round, Kind: FaultDrop, Node: to, From: from})
			return
		}
		if forged != nil {
			r.metrics.Mutated++
			r.observeFault(FaultEvent{Round: r.round, Kind: FaultMutate, Node: to, From: from})
			payload = forged
		}
	}
	due := r.round + 1
	if r.fault != nil {
		delay, deliver := r.fault.Fate(r.round, from, to)
		if !deliver {
			r.metrics.FaultDrops++
			r.observeFault(FaultEvent{Round: r.round, Kind: FaultDrop, Node: to, From: from})
			return
		}
		if delay > 0 {
			r.metrics.Delayed++
			r.observeFault(FaultEvent{Round: r.round, Kind: FaultDelay, Node: to, From: from, Delay: delay})
			due += delay
		}
	}
	sender := -1
	if r.cfg.DebugFrom {
		sender = from
	}
	env := Envelope{Port: toPort, From: sender, Payload: payload}
	if r.cfg.Remote != nil && !r.cfg.Remote.Local(to) {
		if err := r.cfg.Remote.Send(r.round, due, to, env); err != nil && r.stepErr == nil {
			r.stepErr = fmt.Errorf("sim: remote send from node %d at round %d: %w", from, r.round, err)
		}
		return
	}
	r.tr.send(r.round, due, to, env)
}

// Run is the one-shot convenience wrapper: wake every node at round 0 and
// run to quiescence.
func Run(cfg Config, procs []Process) (Metrics, error) {
	r, err := NewRunner(cfg, procs)
	if err != nil {
		return Metrics{}, err
	}
	r.WakeAll(0)
	if err := r.Run(); err != nil {
		return r.Metrics(), err
	}
	m := r.Metrics()
	// End-of-run message-kind breakdown, one instant per kind in sorted
	// order so trace files are deterministic for a deterministic run.
	if tr := cfg.Tracer; tr.Enabled() && len(m.ByKind) > 0 {
		kinds := make([]string, 0, len(m.ByKind))
		for k := range m.ByKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			tr.Instant("kind", k, -1, map[string]int64{"count": m.ByKind[k]})
		}
	}
	return m, nil
}
