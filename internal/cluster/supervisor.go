package cluster

// The supervisor: leader leases with coordinator-side failure detection.
//
// A Supervision owns the session. It elects over the current membership,
// grants the leader a lease (workers heartbeat while it holds), and
// watches every worker link. When a shard dies — its TCP connection
// drops, or its heartbeats stop for a TTL — the supervisor bumps the
// epoch, quiesces every surviving link (an epoch-marker exchange drains
// whatever the aborted job left in flight), shrinks the membership to
// the survivors' nodes, and re-elects over the induced subgraph. A
// crashed shard that dials back in is folded in the same way: epoch
// bump, quiesce, re-election over the grown membership.
//
// Epoch 1 runs with the spec's seed verbatim, so a supervised first
// election stays byte-identical to the in-process sim (the keystone
// determinism contract). Later epochs (and retried attempts) derive
// their seed from (epoch, attempt), so every reign is still reproducible
// — Reign.Seed records the seed that won.
//
// A completed election may still fail: the probabilistic backend elects
// zero (or, rarely, several) leaders with small probability. The
// supervisor retries such elections at deterministically derived seeds,
// a bounded number of times per epoch, before declaring the failure
// fatal.
//
// Supervision assumes the graph's survivor-induced subgraphs stay
// connected (cliques, dense random graphs). A disconnected remainder
// elects one leader per component every attempt, which the supervisor
// reports as a fatal multi-leader outcome once the attempts run out.

import (
	"fmt"
	"sync"
	"time"

	"wcle/internal/sim"
	"wcle/internal/wire"
)

// defaultLeaseTTL is how long a silent worker stays presumed-live. Dead
// processes are caught immediately through the connection error; the TTL
// only backstops hung-but-connected peers, so it is generous.
const defaultLeaseTTL = 5 * time.Second

// electAttempts bounds how many times one epoch retries a
// completed-but-failed election (zero or several leaders) before the
// supervisor declares it fatal. Each attempt's seed is derived
// deterministically, so a supervised run is still a pure function of the
// spec seed and the membership history.
const electAttempts = 3

// epochSeed is the seed of one election attempt. The keystone attempt —
// epoch 1, first try — uses the spec seed verbatim so a supervised first
// election stays byte-identical to the in-process sim; everything else
// derives from (epoch, attempt).
func epochSeed(master int64, epoch uint64, attempt int) int64 {
	if epoch == 1 && attempt == 0 {
		return master
	}
	return sim.DeriveSeed(master, epoch|uint64(attempt)<<32)
}

// EventKind tags a supervision event.
type EventKind string

const (
	// EventLease: an election completed and the leader's lease began.
	EventLease EventKind = "lease"
	// EventDeath: a worker shard was declared dead.
	EventDeath EventKind = "death"
	// EventRejoin: a crashed shard reconnected and was folded back in.
	EventRejoin EventKind = "rejoin"
)

// Event is one supervision state change, delivered to OnEvent in order.
type Event struct {
	Kind  EventKind
	Epoch uint64
	// Shard is the affected shard (death/rejoin).
	Shard int
	// Leader is the elected leader as an original node index of the full
	// graph; LeaderShard hosts it (lease events).
	Leader      int
	LeaderShard int
	// Err is the observed cause of a death, when there was one.
	Err error
}

// Reign is one completed election under supervision: who led, over which
// membership, and how long the election took.
type Reign struct {
	// Epoch numbers the reign (1 = the initial election).
	Epoch uint64
	// Leader is the leader as an original node index of the full graph;
	// LeaderShard hosts it.
	Leader      int
	LeaderShard int
	// Members is the membership the election ran over (original node
	// indices; nil = the full graph).
	Members []int
	// Result is the merged election result (leader indices inside it are
	// renumbered to the induced subgraph; Leader above is the original).
	Result *Result
	// Seed is the election seed of the successful attempt; Attempts counts
	// the elections the epoch ran (>1 when failed elections were retried).
	Seed     int64
	Attempts int
	// ElectWall is the election's own wall time; RecoverWall additionally
	// includes the quiesce that preceded it (zero for epoch 1). The
	// difference is the price of draining the broken epoch.
	ElectWall   time.Duration
	RecoverWall time.Duration
}

// SuperviseConfig parameterizes Coordinator.Supervise.
type SuperviseConfig struct {
	// Spec is the election to run and re-run. Members must be empty: the
	// supervisor owns the membership.
	Spec JobSpec
	// HeartEvery is the worker heartbeat period (0 = 50ms).
	HeartEvery time.Duration
	// TTL declares a worker dead after this much silence (0 = 5s). Abrupt
	// process death is detected through the connection error long before.
	TTL time.Duration
	// OnEvent, when set, observes every lease/death/rejoin synchronously
	// from the supervisor goroutine. Must not call back into the
	// supervision.
	OnEvent func(Event)
}

// Supervision is an active supervised session.
type Supervision struct {
	c   *Coordinator
	cfg SuperviseConfig
	n0  int // full-graph node count

	stopCh   chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	mu     sync.Mutex
	reigns []Reign
	err    error
}

// Supervise starts supervising the session: elect, lease, monitor,
// re-elect on membership changes, until Stop or a fatal error. Ad-hoc
// Elect calls are refused while the supervision runs.
func (c *Coordinator) Supervise(cfg SuperviseConfig) (*Supervision, error) {
	if cfg.HeartEvery <= 0 {
		cfg.HeartEvery = defaultHeartEvery
	}
	if cfg.TTL <= 0 {
		cfg.TTL = defaultLeaseTTL
	}
	if len(cfg.Spec.Members) != 0 {
		return nil, fmt.Errorf("cluster: supervision owns the member list; supervise a full-graph spec")
	}
	if err := cfg.Spec.Fault.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	g0, err := cfg.Spec.Graph.Build()
	if err != nil {
		return nil, fmt.Errorf("cluster: graph spec: %w", err)
	}
	if g0.N() < c.cfg.Shards {
		return nil, fmt.Errorf("cluster: %d-node graph cannot be split across %d shards", g0.N(), c.cfg.Shards)
	}
	c.mu.Lock()
	switch {
	case c.closed:
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: coordinator is shut down")
	case c.supervising:
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: session is already under supervision")
	}
	c.supervising = true
	c.mu.Unlock()
	s := &Supervision{
		c:      c,
		cfg:    cfg,
		n0:     g0.N(),
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	go s.run()
	return s, nil
}

// Stop ends the supervision after the current activity settles. The
// session quiesces into a fresh epoch on the way out, so it stays usable
// for ad-hoc elections afterwards. Idempotent.
func (s *Supervision) Stop() {
	s.stopOnce.Do(func() { close(s.stopCh) })
}

// Wait blocks until the supervision ends and returns every completed
// reign in order, plus the fatal error if one ended it (nil after Stop).
func (s *Supervision) Wait() ([]Reign, error) {
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Reign(nil), s.reigns...), s.err
}

// Reigns snapshots the completed reigns so far.
func (s *Supervision) Reigns() []Reign {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Reign(nil), s.reigns...)
}

func (s *Supervision) finish(err error) {
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

func (s *Supervision) emit(ev Event) {
	if tr := s.c.tracer; tr.Enabled() {
		args := map[string]int64{"epoch": int64(ev.Epoch)}
		switch ev.Kind {
		case EventLease:
			args["leader"] = int64(ev.Leader)
			args["leader_shard"] = int64(ev.LeaderShard)
		default:
			args["shard"] = int64(ev.Shard)
		}
		tr.Instant("epoch", string(ev.Kind), -1, args)
	}
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(ev)
	}
}

// leaseEvent is what ends one monitoring phase.
type leaseEvent struct {
	kind  EventKind // EventDeath or EventRejoin; "" for stop
	shard int
	err   error
	req   rejoinReq
}

// run is the supervisor loop. One iteration = quiesce (except epoch 1),
// elect, lease, monitor until a trigger.
func (s *Supervision) run() {
	defer close(s.done)
	defer func() {
		s.c.mu.Lock()
		s.c.supervising = false
		s.c.mu.Unlock()
	}()
	c := s.c
	shards := c.cfg.Shards
	live := make([]bool, shards)
	for i := range live {
		live[i] = true
	}
	epoch := uint64(1)
	var members []int       // nil = full graph
	var triggerAt time.Time // when the membership change that led here was observed

	for {
		select {
		case <-s.stopCh:
			s.finish(nil)
			return
		default:
		}
		if c.isClosed() {
			s.finish(fmt.Errorf("cluster: coordinator shut down during supervision"))
			return
		}

		// Elect over the current membership, retrying completed-but-failed
		// elections at derived seeds (see epochSeed).
		spec := s.cfg.Spec
		spec.Members = members
		t0 := time.Now()
		electSp := c.tracer.Start("epoch", "elect", -1)
		electSp.Arg("epoch", int64(epoch))
		electSp.Arg("members", int64(len(members)))
		var res *Result
		var err error
		attempts := 0
		for attempts < electAttempts {
			spec.Seed = epochSeed(s.cfg.Spec.Seed, epoch, attempts)
			res, err = c.elect(spec)
			attempts++
			if err != nil || len(res.Outcome.Leaders) == 1 {
				break
			}
		}
		electSp.Arg("attempts", int64(attempts))
		electSp.End()
		electWall := time.Since(t0)
		if err != nil {
			dead := s.deadShards(live)
			if len(dead) == 0 {
				s.finish(fmt.Errorf("cluster: epoch %d election failed: %w", epoch, err))
				return
			}
			// A shard died under the election. Declare it, quiesce the
			// wreckage, and retry over the survivors.
			if triggerAt.IsZero() {
				triggerAt = t0
			}
			epoch, members = s.retire(epoch, live, &members, dead, nil)
			continue
		}
		if len(res.Outcome.Leaders) != 1 {
			s.finish(fmt.Errorf("cluster: epoch %d elected %d leaders %v in %d attempts (membership no longer connected?)",
				epoch, len(res.Outcome.Leaders), res.Outcome.Leaders, attempts))
			return
		}
		leader := res.Outcome.Leaders[0]
		if members != nil {
			leader = members[leader]
		}
		leaderShard := ownerOf(s.n0, shards, leader)
		recoverWall := electWall
		if !triggerAt.IsZero() {
			recoverWall = time.Since(triggerAt)
		}
		triggerAt = time.Time{}
		reign := Reign{
			Epoch: epoch, Leader: leader, LeaderShard: leaderShard,
			Members: append([]int(nil), members...), Result: res,
			Seed: spec.Seed, Attempts: attempts,
			ElectWall: electWall, RecoverWall: recoverWall,
		}
		s.mu.Lock()
		s.reigns = append(s.reigns, reign)
		s.mu.Unlock()
		s.emit(Event{Kind: EventLease, Epoch: epoch, Leader: leader, LeaderShard: leaderShard})

		// Grant the lease: workers heartbeat until the next epoch change.
		leasePayload := wire.AppendLease(nil, wire.Lease{
			Epoch: epoch, Leader: res.Outcome.Leaders[0], LeaderShard: leaderShard,
			HeartMillis: uint32(s.cfg.HeartEvery / time.Millisecond),
		})
		var dead []deadShard
		for p := 1; p < shards; p++ {
			if !live[p] {
				continue
			}
			l := c.linkOf(p)
			if l == nil {
				continue
			}
			if err := l.writeFlush(frameLease, leasePayload); err != nil {
				dead = append(dead, deadShard{p, err})
			}
		}
		if len(dead) > 0 {
			triggerAt = time.Now()
			epoch, members = s.retire(epoch, live, &members, dead, nil)
			continue
		}

		// Monitor the lease until something changes the membership.
		trigger, extra := s.monitorLease(live)
		switch trigger.kind {
		case "":
			// Stop: quiesce into a fresh epoch so heartbeats cease and the
			// session stays usable.
			epoch++
			s.quiesce(epoch, live, nil)
			c.recoverSession()
			s.finish(nil)
			return
		case EventDeath:
			triggerAt = time.Now()
			dead := append([]deadShard{{trigger.shard, trigger.err}}, extra...)
			epoch, members = s.retire(epoch, live, &members, dead, nil)
		case EventRejoin:
			triggerAt = time.Now()
			r := trigger.req
			if live[r.shard] && c.linkOf(r.shard) != nil && c.linkOf(r.shard).failed() == nil {
				// Spurious: the shard is alive and wired. Drop the extra
				// connection; still quiesce into a fresh epoch (the
				// monitors are down and any deaths in extra must land).
				r.link.close()
				epoch, members = s.retire(epoch, live, &members, extra, nil)
			} else {
				epoch, members = s.retire(epoch, live, &members, extra, &r)
				s.emit(Event{Kind: EventRejoin, Epoch: epoch, Shard: r.shard})
			}
		}
	}
}

// deadShard is one shard to declare dead, with the observed cause.
type deadShard struct {
	shard int
	err   error
}

// retire applies a membership change: mark deaths, fold in a rejoiner,
// bump the epoch, and quiesce every surviving link — repeating if the
// quiesce itself uncovers more deaths. Returns the new epoch and member
// list.
func (s *Supervision) retire(epoch uint64, live []bool, members *[]int, dead []deadShard, rj *rejoinReq) (uint64, []int) {
	c := s.c
	for {
		for _, d := range dead {
			if !live[d.shard] {
				continue
			}
			live[d.shard] = false
			c.dropLink(d.shard)
			s.emit(Event{Kind: EventDeath, Epoch: epoch, Shard: d.shard, Err: d.err})
		}
		if rj != nil {
			live[rj.shard] = true
		}
		epoch++
		*members = membersOf(s.n0, len(live), live)
		newDead := s.quiesce(epoch, live, rj)
		rj = nil
		if len(newDead) == 0 {
			break
		}
		dead = newDead
	}
	c.recoverSession()
	return epoch, *members
}

// monitorLease watches every live worker link until a death, a rejoin
// request, or Stop. It returns the trigger plus any additional deaths
// observed while retiring the monitors. On return no monitor goroutine
// is left and no link queue holds a pending interrupt.
func (s *Supervision) monitorLease(live []bool) (leaseEvent, []deadShard) {
	c := s.c
	type exit struct {
		shard int
		err   error // nil: interrupted
	}
	events := make(chan exit, len(live))
	running := 0
	for p := 1; p < len(live); p++ {
		if !live[p] {
			continue
		}
		l := c.linkOf(p)
		if l == nil {
			continue
		}
		running++
		go func(p int, l *link) {
			for {
				f, err := l.q.next(s.cfg.TTL)
				if err == errInterrupted {
					events <- exit{p, nil}
					return
				}
				if err != nil {
					events <- exit{p, err}
					return
				}
				if f.typ != frameHeart {
					events <- exit{p, fmt.Errorf("cluster: unexpected %s from shard %d under lease", frameName(f.typ), p)}
					return
				}
			}
		}(p, l)
	}

	var trigger leaseEvent
	select {
	case <-s.stopCh:
		trigger = leaseEvent{kind: ""}
	case r := <-c.rejoinCh:
		trigger = leaseEvent{kind: EventRejoin, shard: r.shard, req: r}
	case e := <-events:
		running--
		trigger = leaseEvent{kind: EventDeath, shard: e.shard, err: e.err}
	}

	// Retire the remaining monitors. Interrupting a queue whose monitor
	// already exited leaves a stale flag; cleared below once every monitor
	// is accounted for.
	for p := 1; p < len(live); p++ {
		if l := c.linkOf(p); live[p] && l != nil {
			l.q.interrupt()
		}
	}
	var extra []deadShard
	for running > 0 {
		e := <-events
		running--
		if e.err != nil && e.shard != trigger.shard {
			extra = append(extra, deadShard{e.shard, e.err})
		}
	}
	for p := 1; p < len(live); p++ {
		if l := c.linkOf(p); live[p] && l != nil {
			l.q.clearInterrupt()
		}
	}
	return trigger, extra
}

// quiesce moves every surviving link into the given epoch: broadcast the
// epoch change, hand a rejoiner the peer directory, and collect every
// survivor's ack (draining whatever the dying epoch left queued). It
// returns the shards that failed to quiesce — dead, for the caller to
// retire next.
func (s *Supervision) quiesce(epoch uint64, live []bool, rj *rejoinReq) (dead []deadShard) {
	c := s.c
	quiesceSp := c.tracer.Start("epoch", "quiesce", -1)
	quiesceSp.Arg("epoch", int64(epoch))
	defer func() {
		quiesceSp.Arg("dead", int64(len(dead)))
		quiesceSp.End()
	}()
	shards := len(live)
	rejoin := -1
	var rejoinAddr string
	if rj != nil {
		rejoin, rejoinAddr = rj.shard, rj.addr
	}
	payload := wire.AppendEpochChange(nil, wire.EpochChange{
		Epoch: epoch, Live: append([]bool(nil), live...), Rejoin: rejoin, RejoinAddr: rejoinAddr,
	})
	deadSet := map[int]error{}
	for p := 1; p < shards; p++ {
		if !live[p] || p == rejoin {
			continue
		}
		l := c.linkOf(p)
		if l == nil {
			deadSet[p] = fmt.Errorf("cluster: shard %d has no link", p)
			continue
		}
		if err := l.writeFlush(frameEpoch, payload); err != nil {
			deadSet[p] = err
		}
	}
	// The rejoiner gets the peer directory instead (its link is fresh;
	// nothing to drain) — before the ack collection, because survivors
	// below the rejoiner wait for its dial during their own epoch change.
	if rj != nil {
		c.installLink(rj.shard, rj.link)
		addrs := c.directory(rj.shard, rj.addr)
		if err := rj.link.writeJSON(framePeers, peersMsg{Addrs: addrs, Live: append([]bool(nil), live...), Compress: c.cfg.Compress}); err != nil {
			deadSet[rj.shard] = err
		} else if err := rj.link.flush(); err != nil {
			deadSet[rj.shard] = err
		}
	}
	for p := 1; p < shards; p++ {
		if !live[p] || p == rejoin || deadSet[p] != nil {
			continue
		}
		if err := collectEpochAck(c.linkOf(p), epoch); err != nil {
			deadSet[p] = err
		}
	}
	if rj != nil && deadSet[rj.shard] == nil {
		// The rejoiner reports up once its pairwise links are rebuilt.
		var up upMsg
		if err := rj.link.expectJSON(frameUp, &up); err != nil {
			deadSet[rj.shard] = err
		} else if up.Shard != rj.shard {
			deadSet[rj.shard] = fmt.Errorf("cluster: rejoiner %d reported up as shard %d", rj.shard, up.Shard)
		}
	}
	for p := 1; p < shards; p++ {
		if err, ok := deadSet[p]; ok {
			dead = append(dead, deadShard{p, err})
		}
	}
	return dead
}

// collectEpochAck reads one worker's epoch ack, skimming stale frames of
// the epoch being drained.
func collectEpochAck(l *link, epoch uint64) error {
	for {
		f, err := l.next()
		if err != nil {
			return err
		}
		switch f.typ {
		case frameEpochAck:
			e, rest, err := wire.ReadUvarint(f.payload)
			if err != nil || len(rest) != 0 {
				return fmt.Errorf("cluster: corrupt epoch ack from shard %d", l.peer)
			}
			if e == epoch {
				return nil
			}
			// An older epoch's ack: keep draining.
		case frameData, frameDataZ, frameResult, frameAbort, frameHeart:
			// Leftovers of the dying epoch.
		default:
			return fmt.Errorf("cluster: unexpected %s from shard %d while quiescing epoch %d", frameName(f.typ), l.peer, epoch)
		}
	}
}

// deadShards scans the live set for links that have failed (or vanished).
func (s *Supervision) deadShards(live []bool) []deadShard {
	var dead []deadShard
	for p := 1; p < len(live); p++ {
		if !live[p] {
			continue
		}
		l := s.c.linkOf(p)
		if l == nil {
			dead = append(dead, deadShard{p, fmt.Errorf("cluster: shard %d has no link", p)})
		} else if err := l.failed(); err != nil {
			dead = append(dead, deadShard{p, err})
		}
	}
	return dead
}

// membersOf lists the original node indices owned by the live shards
// (nil when every shard is live: the full graph).
func membersOf(n0, shards int, live []bool) []int {
	all := true
	for _, v := range live {
		all = all && v
	}
	if all {
		return nil
	}
	var m []int
	for sh := 0; sh < shards; sh++ {
		if !live[sh] {
			continue
		}
		for v := shardLo(n0, shards, sh); v < shardLo(n0, shards, sh+1); v++ {
			m = append(m, v)
		}
	}
	return m
}

// Coordinator link-table helpers, shared with the supervisor.

func (c *Coordinator) linkOf(p int) *link {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.links[p]
}

func (c *Coordinator) installLink(p int, l *link) {
	c.mu.Lock()
	old := c.links[p]
	c.links[p] = l
	c.mu.Unlock()
	if old != nil && old != l {
		old.close()
	}
}

func (c *Coordinator) dropLink(p int) {
	c.mu.Lock()
	old := c.links[p]
	c.links[p] = nil
	c.mu.Unlock()
	if old != nil {
		old.close()
	}
}

// directory rebuilds the shard address table for a rejoiner, substituting
// the rejoiner's own announced address (its old link is gone).
func (c *Coordinator) directory(rejoin int, rejoinAddr string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	addrs := make([]string, c.cfg.Shards)
	addrs[0] = c.ln.Addr().String()
	for p := 1; p < c.cfg.Shards; p++ {
		if p == rejoin {
			addrs[p] = rejoinAddr
		} else if c.links[p] != nil {
			addrs[p] = c.links[p].addr
		}
	}
	return addrs
}

// recoverSession clears the broken-session latch after a quiesce: the
// links are drained, so the next job can trust them again.
func (c *Coordinator) recoverSession() {
	c.jobMu.Lock()
	c.broken = nil
	c.jobMu.Unlock()
}

func (c *Coordinator) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}
