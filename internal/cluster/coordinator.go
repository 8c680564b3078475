package cluster

// The coordinator: shard 0 of the cluster. It admits the other shards,
// publishes the peer directory, owns job control (start/result/merge) and
// answers client submissions.

import (
	"fmt"
	"net"
	"sync"
	"time"

	"wcle/internal/obs"
)

// CoordinatorConfig parameterizes NewCoordinator.
type CoordinatorConfig struct {
	// Listen is the bootstrap address workers join through (and clients
	// submit to). Port 0 picks an ephemeral port (Addr reports it).
	Listen string
	// Shards is the total shard count, coordinator included (>= 1).
	Shards int
	// ReadyTimeout bounds how long Run waits for the cluster to
	// assemble (0 = 60s).
	ReadyTimeout time.Duration
	// Compress enables flate compression of data frames above the size
	// threshold on every shard of the session (the peer directory carries
	// the setting). Off by default: it trades coordinator/worker CPU for
	// wire bytes, which only pays off on message-heavy workloads or thin
	// links.
	Compress bool
	// TraceSink, when non-nil, additionally receives every trace event the
	// coordinator's shard records (the always-on flight recorder gets them
	// regardless). Tracing is strictly observational: a traced election is
	// byte-identical to an untraced one at the same seed.
	TraceSink obs.Sink
	// FlightCap bounds the flight recorder (0 = obs.DefaultFlightCap).
	FlightCap int
}

// Coordinator is shard 0: the bootstrap listener, the job dispatcher,
// and the merge point for job results.
type Coordinator struct {
	cfg CoordinatorConfig
	ln  net.Listener

	// flight is the always-on bounded flight recorder of shard 0; tracer
	// tees every event into it (plus cfg.TraceSink when set).
	flight *obs.Ring
	tracer *obs.Tracer

	mu       sync.Mutex
	links    []*link // by shard id; [0] stays nil
	joined   int
	setupErr error
	closed   bool

	ready     chan struct{} // closed once every worker reported up
	readyOnce sync.Once     // guards every close of ready

	jobMu  sync.Mutex
	jobID  int64
	broken error // a failed job breaks the session — unless a supervisor recovers it

	// supervising marks the session as owned by a Supervision: ad-hoc
	// Run calls are refused (their frames would interleave with lease
	// traffic) and crashed shards may rejoin through rejoinCh.
	supervising bool
	rejoinCh    chan rejoinReq

	// stats accumulates shard 0's per-job accounting for the ops surface.
	statsMu sync.Mutex
	stats   SessionStats

	shutdownOnce sync.Once
}

// Stats returns a copy of the coordinator's accumulated session stats
// (shard 0's own traffic, not the cluster total).
func (c *Coordinator) Stats() SessionStats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.stats
}

// rejoinReq is one crashed shard announcing itself back to an active
// supervision.
type rejoinReq struct {
	shard int
	addr  string
	link  *link
}

// NewCoordinator binds the bootstrap listener and starts admitting
// workers. It returns immediately; Run blocks until the cluster is
// assembled.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("cluster: coordinator needs >= 1 shards, got %d", cfg.Shards)
	}
	if cfg.ReadyTimeout == 0 {
		cfg.ReadyTimeout = 60 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	flight := obs.NewRing(cfg.FlightCap)
	c := &Coordinator{
		cfg:      cfg,
		ln:       ln,
		flight:   flight,
		tracer:   obs.New(obs.Tee(flight, cfg.TraceSink), 0),
		links:    make([]*link, cfg.Shards),
		ready:    make(chan struct{}),
		rejoinCh: make(chan rejoinReq, cfg.Shards),
	}
	if cfg.Shards == 1 {
		c.closeReady() // a single-shard cluster is trivially assembled
	}
	go c.acceptLoop()
	return c, nil
}

// Addr returns the bound bootstrap address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Flight returns the coordinator's always-on flight recorder: the last
// trace events shard 0 produced, ready to dump on crash or re-election.
func (c *Coordinator) Flight() *obs.Ring { return c.flight }

// Tracer returns the coordinator's tracer (never nil: the flight
// recorder is always attached).
func (c *Coordinator) Tracer() *obs.Tracer { return c.tracer }

// acceptLoop admits workers (hello) and clients (submit) until the
// listener closes.
func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go c.admit(conn)
	}
}

// admit routes one inbound connection by its first frame.
func (c *Coordinator) admit(conn net.Conn) {
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	f, err := readFrame(conn)
	if err != nil {
		_ = conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	switch f.typ {
	case frameHello:
		c.admitWorker(conn, f)
	case frameSubmit:
		c.serveClient(conn, f)
	default:
		_ = conn.Close()
	}
}

// admitWorker registers a joining shard; the last join triggers the
// directory broadcast and the up collection.
func (c *Coordinator) admitWorker(conn net.Conn, f frame) {
	var h helloMsg
	if err := decodeJSON(f, &h); err != nil {
		_ = conn.Close()
		return
	}
	c.mu.Lock()
	if c.joined == c.cfg.Shards-1 || c.setupErr != nil {
		// The cluster already assembled. Under supervision a crashed
		// shard may rejoin: park the connection for the supervisor, which
		// folds it in at the next epoch boundary. Anything else (an
		// operator re-running a worker, a port probe) is refused — and
		// setup failures are never re-judged.
		supervising := c.supervising && c.setupErr == nil
		dead := h.Shard >= 1 && h.Shard < c.cfg.Shards &&
			(c.links[h.Shard] == nil || c.links[h.Shard].failed() != nil)
		c.mu.Unlock()
		if supervising && dead && h.Proto == proto && h.Addr != "" {
			l := newLink(h.Shard, conn)
			l.addr = h.Addr
			select {
			case c.rejoinCh <- rejoinReq{shard: h.Shard, addr: h.Addr, link: l}:
			default:
				l.close() // rejoin queue full: try again later
			}
			return
		}
		_ = conn.Close()
		return
	}
	switch {
	case h.Proto != proto:
		c.failSetupLocked(fmt.Errorf("cluster: shard %d speaks protocol %d, want %d", h.Shard, h.Proto, proto))
	case h.Shard < 1 || h.Shard >= c.cfg.Shards:
		c.failSetupLocked(fmt.Errorf("cluster: joining shard id %d out of [1, %d)", h.Shard, c.cfg.Shards))
	case c.links[h.Shard] != nil:
		c.failSetupLocked(fmt.Errorf("cluster: shard %d joined twice", h.Shard))
	case h.Addr == "":
		c.failSetupLocked(fmt.Errorf("cluster: shard %d joined without a listen address", h.Shard))
	default:
		l := newLink(h.Shard, conn)
		l.addr = h.Addr
		c.links[h.Shard] = l
		c.joined++
		if c.joined == c.cfg.Shards-1 {
			links := append([]*link(nil), c.links...)
			c.mu.Unlock()
			c.finishSetup(links)
			return
		}
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	_ = conn.Close()
}

// closeReady unblocks Run exactly once, however many paths race to it.
func (c *Coordinator) closeReady() {
	c.readyOnce.Do(func() { close(c.ready) })
}

// failSetupLocked records the first setup failure and unblocks Run.
func (c *Coordinator) failSetupLocked(err error) {
	if c.setupErr == nil {
		c.setupErr = err
		c.closeReady()
	}
}

// finishSetup broadcasts the peer directory and waits for every worker's
// pairwise links to come up.
func (c *Coordinator) finishSetup(links []*link) {
	addrs := make([]string, c.cfg.Shards)
	addrs[0] = c.Addr()
	for shard := 1; shard < c.cfg.Shards; shard++ {
		addrs[shard] = links[shard].addr
	}
	var err error
	for shard := 1; shard < c.cfg.Shards && err == nil; shard++ {
		l := links[shard]
		if e := l.writeJSON(framePeers, peersMsg{Addrs: addrs, Compress: c.cfg.Compress}); e != nil {
			err = e
		} else if e := l.flush(); e != nil {
			err = e
		}
	}
	for shard := 1; shard < c.cfg.Shards && err == nil; shard++ {
		var up upMsg
		if e := links[shard].expectJSON(frameUp, &up); e != nil {
			err = e
		} else if up.Shard != shard {
			err = fmt.Errorf("cluster: shard %d reported up as shard %d", shard, up.Shard)
		}
	}
	c.mu.Lock()
	if err != nil {
		c.failSetupLocked(err)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	c.closeReady()
}

// serveClient answers submit frames on one client connection until it
// closes.
func (c *Coordinator) serveClient(conn net.Conn, first frame) {
	defer conn.Close()
	f := first
	for {
		if f.typ != frameSubmit {
			return
		}
		var spec JobSpec
		if err := decodeJSON(f, &spec); err != nil {
			_ = writeJSONFrame(conn, frameOutcome, outcomeMsg{Err: err.Error()})
			return
		}
		res, err := c.Run(spec)
		out := outcomeMsg{Result: res}
		if err != nil {
			out = outcomeMsg{Err: err.Error()}
		}
		if err := writeJSONFrame(conn, frameOutcome, out); err != nil {
			return
		}
		var rerr error
		if f, rerr = readFrame(conn); rerr != nil {
			return
		}
	}
}

// Run runs one job across the cluster and returns the merged result: an
// election, or with spec.Protocol set any registered engine protocol,
// whose merged Result then carries the reassembled Engine report. Jobs
// are serialized: the barrier owns every link while a job runs. The same
// seed elects the same leader as the in-process sim — fault planes
// included, since every FaultSpec plane is shard-safe.
func (c *Coordinator) Run(spec JobSpec) (*Result, error) {
	c.mu.Lock()
	supervising := c.supervising
	c.mu.Unlock()
	if supervising {
		return nil, fmt.Errorf("cluster: session is under supervision; ad-hoc elections would interleave with lease traffic")
	}
	return c.elect(spec)
}

// elect is the supervisor-accessible election path (no supervising gate).
func (c *Coordinator) elect(spec JobSpec) (*Result, error) {
	select {
	case <-c.ready:
	case <-time.After(c.cfg.ReadyTimeout):
		c.mu.Lock()
		joined := c.joined
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: only %d of %d shards joined within %v", joined+1, c.cfg.Shards, c.cfg.ReadyTimeout)
	}
	c.mu.Lock()
	err := c.setupErr
	closed := c.closed
	links := append([]*link(nil), c.links...)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if closed {
		return nil, fmt.Errorf("cluster: coordinator is shut down")
	}

	c.jobMu.Lock()
	defer c.jobMu.Unlock()
	if c.broken != nil {
		return nil, fmt.Errorf("cluster: session broken by an earlier job: %w", c.broken)
	}
	// Validate before touching the workers, with the resolver every shard
	// runs: a bad spec must fail the job, not the session.
	p, err := spec.protocol()
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if err := spec.Fault.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	g0, err := spec.Graph.Build()
	if err != nil {
		return nil, fmt.Errorf("cluster: graph spec: %w", err)
	}
	if g0.N() < c.cfg.Shards {
		return nil, fmt.Errorf("cluster: %d-node graph cannot be split across %d shards", g0.N(), c.cfg.Shards)
	}
	g, owner, err := spec.owners(g0, c.cfg.Shards)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	live := liveShards(owner, c.cfg.Shards)
	for shard := 1; shard < c.cfg.Shards; shard++ {
		if live[shard] && links[shard] == nil {
			return nil, fmt.Errorf("cluster: job needs shard %d, which is not part of the session", shard)
		}
	}

	c.jobID++
	start := startMsg{JobID: c.jobID, Spec: spec}
	for shard := 1; shard < c.cfg.Shards; shard++ {
		if !live[shard] {
			continue
		}
		l := links[shard]
		if err := l.writeJSON(frameStart, start); err != nil {
			c.broken = err
			return nil, err
		}
		if err := l.flush(); err != nil {
			c.broken = err
			return nil, err
		}
	}

	parts := make([]partialResult, 0, c.cfg.Shards)
	own := runShard(links, 0, c.cfg.Shards, c.jobID, spec, c.cfg.Compress, c.tracer)
	c.statsMu.Lock()
	c.stats.addJob(own)
	c.statsMu.Unlock()
	parts = append(parts, own)
	for shard := 1; shard < c.cfg.Shards; shard++ {
		if !live[shard] {
			continue
		}
		pr, err := collectResult(links[shard], c.jobID)
		if err != nil {
			c.broken = err
			return nil, err
		}
		parts = append(parts, pr)
	}
	res, err := merge(p, g.N(), c.cfg.Shards, parts)
	if err != nil {
		// A failed job leaves barrier state (aborts, half-flushed
		// rounds) on the links; nothing after it can trust them — until a
		// supervisor quiesces the session into a new epoch.
		c.broken = err
		return nil, err
	}
	return res, nil
}

// collectResult reads one shard's result frame, skimming leftover barrier
// frames of a run that died mid-round.
func collectResult(l *link, jobID int64) (partialResult, error) {
	for {
		f, err := l.next()
		if err != nil {
			return partialResult{}, err
		}
		switch f.typ {
		case frameResult:
			var pr partialResult
			if err := decodeJSON(f, &pr); err != nil {
				return partialResult{}, err
			}
			if pr.JobID != jobID {
				return partialResult{}, fmt.Errorf("cluster: shard %d answered job %d, expected %d", l.peer, pr.JobID, jobID)
			}
			return pr, nil
		case frameData, frameDataZ, frameAbort, frameHeart:
			// Leftovers of a broken barrier (or a straggling heartbeat);
			// the result frame follows.
		default:
			return partialResult{}, fmt.Errorf("cluster: expected result from shard %d, got %s", l.peer, frameName(f.typ))
		}
	}
}

// Shutdown ends the session: workers get a shutdown frame and exit, the
// listener closes. Idempotent.
func (c *Coordinator) Shutdown() {
	c.shutdownOnce.Do(func() {
		c.jobMu.Lock()
		defer c.jobMu.Unlock()
		c.mu.Lock()
		c.closed = true
		links := append([]*link(nil), c.links...)
		c.mu.Unlock()
		for _, l := range links {
			if l == nil {
				continue
			}
			_ = l.writeJSON(frameShutdown, shutdownMsg{})
			_ = l.flush()
			l.close()
		}
		_ = c.ln.Close()
	})
}
