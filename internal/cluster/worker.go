package cluster

// A worker: one non-coordinator shard process. It joins through the
// coordinator's bootstrap address, wires up its pairwise peer links, and
// then runs jobs until told to shut down. Under supervision it also
// heartbeats while a lease holds, quiesces its links at epoch changes,
// and accepts replacement connections from shards rejoining after a
// crash (the listener stays open for the whole session).

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"wcle/internal/obs"
	"wcle/internal/wire"
)

// defaultHeartEvery is the heartbeat period when a lease does not name
// one.
const defaultHeartEvery = 50 * time.Millisecond

// rejoinWait bounds how long an epoch change waits for a rejoining
// shard's replacement connection to arrive.
const rejoinWait = 15 * time.Second

// WorkerConfig parameterizes NewWorker.
type WorkerConfig struct {
	// Bootstrap is the coordinator's address.
	Bootstrap string
	// Shard is this process's shard id (1 <= Shard < cluster size; the
	// coordinator is shard 0).
	Shard int
	// Listen is this worker's own listen address, for higher-numbered
	// shards to dial (port 0 picks an ephemeral port).
	Listen string
	// DialTimeout bounds each connection attempt (0 = 10s).
	DialTimeout time.Duration
	// TraceSink, when non-nil, additionally receives every trace event
	// this shard records (the always-on flight recorder gets them
	// regardless).
	TraceSink obs.Sink
	// FlightCap bounds the flight recorder (0 = obs.DefaultFlightCap).
	FlightCap int
}

// Worker is one joined shard process.
type Worker struct {
	cfg   WorkerConfig
	ln    net.Listener
	link0 *link
	// flight is the shard's always-on flight recorder; tracer tees every
	// event into it (plus cfg.TraceSink when set).
	flight *obs.Ring
	tracer *obs.Tracer
	// compress is the session's data-frame compression setting, as
	// announced in the peer directory (owned by the run goroutine).
	compress bool

	// parked holds replacement peer connections accepted while the main
	// loop was elsewhere; the epoch-change handler claims them.
	pmu    sync.Mutex
	parked map[int]*link
	pnote  chan struct{}

	// conns registers every connection ever opened so Kill can sever the
	// process from the cluster abruptly (simulating a crash).
	cmu    sync.Mutex
	conns  []net.Conn
	killed bool

	// heartbeater state (owned by the run goroutine).
	heartStop chan struct{}
	heartDone chan struct{}

	// stats accumulates per-job accounting for the ops surface.
	statsMu sync.Mutex
	stats   SessionStats
}

// SessionStats aggregates one cluster member's job accounting across its
// session: what it put on the wire and what the fault planes did to its
// shard's traffic. Served by electnode's /metrics.
type SessionStats struct {
	// Jobs counts completed job attempts (failed ones included);
	// JobErrors counts the failed ones.
	Jobs      int64
	JobErrors int64
	// Wire sums this member's shard-local wire traffic.
	Wire WireStats
	// Messages/FaultDrops/Delayed/Mutated sum the shard-local sim
	// accounting of every job.
	Messages   int64
	FaultDrops int64
	Delayed    int64
	Mutated    int64
	// BusyRounds sums the busy (stepped) rounds across jobs.
	BusyRounds int64
}

// addJob folds one finished shard run into the session stats.
func (s *SessionStats) addJob(pr partialResult) {
	s.Jobs++
	if pr.Err != "" {
		s.JobErrors++
	}
	s.Wire.add(pr.Wire)
	s.Messages += pr.Metrics.Messages
	s.FaultDrops += pr.Metrics.FaultDrops
	s.Delayed += pr.Metrics.Delayed
	s.Mutated += pr.Metrics.Mutated
	s.BusyRounds += pr.Metrics.BusyRounds
}

// Stats returns a copy of the worker's accumulated session stats.
func (w *Worker) Stats() SessionStats {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	return w.stats
}

// NewWorker binds the worker's listener and joins the cluster through the
// bootstrap address. The returned worker holds a live connection to the
// coordinator; Run drives it.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Shard < 1 {
		return nil, fmt.Errorf("cluster: worker shard id must be >= 1, got %d (shard 0 is the coordinator)", cfg.Shard)
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialTimeout("tcp", cfg.Bootstrap, cfg.DialTimeout)
	if err != nil {
		_ = ln.Close()
		return nil, fmt.Errorf("cluster: joining %s: %w", cfg.Bootstrap, err)
	}
	if err := writeJSONFrame(conn, frameHello, helloMsg{Proto: proto, Shard: cfg.Shard, Addr: advertiseAddr(ln, cfg.Listen)}); err != nil {
		_ = conn.Close()
		_ = ln.Close()
		return nil, err
	}
	flight := obs.NewRing(cfg.FlightCap)
	w := &Worker{
		cfg:    cfg,
		ln:     ln,
		flight: flight,
		tracer: obs.New(obs.Tee(flight, cfg.TraceSink), cfg.Shard),
		parked: map[int]*link{},
		pnote:  make(chan struct{}),
	}
	w.link0 = w.track(0, conn)
	go w.acceptLoop()
	return w, nil
}

// track wraps a connection in a link and registers it for Kill.
func (w *Worker) track(peer int, conn net.Conn) *link {
	w.cmu.Lock()
	w.conns = append(w.conns, conn)
	killed := w.killed
	w.cmu.Unlock()
	if killed {
		_ = conn.Close()
	}
	return newLink(peer, conn)
}

// Kill severs the worker from the cluster abruptly — every connection and
// the listener close at once, exactly what peers observe when the process
// dies. The Run loop exits with an error shortly after. For crash tests;
// a clean exit goes through the coordinator's shutdown.
func (w *Worker) Kill() {
	w.cmu.Lock()
	w.killed = true
	conns := append([]net.Conn(nil), w.conns...)
	w.cmu.Unlock()
	_ = w.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
}

// advertiseAddr is the address peers should dial: the listener's bound
// address, which resolves the ephemeral port of a ":0" listen spec.
func advertiseAddr(ln net.Listener, spec string) string {
	addr := ln.Addr().String()
	// A wildcard listen ("[::]:7001") is undialable as written; keep the
	// port but let peers use the bootstrap-visible host from the spec if
	// it named one.
	if host, _, err := net.SplitHostPort(spec); err == nil && host != "" {
		if _, port, err := net.SplitHostPort(addr); err == nil {
			return net.JoinHostPort(host, port)
		}
	}
	return addr
}

// Addr returns the worker's bound listen address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// Flight returns the worker's always-on flight recorder: the last trace
// events this shard produced, ready to dump on crash or SIGQUIT.
func (w *Worker) Flight() *obs.Ring { return w.flight }

// Tracer returns the worker's tracer (never nil: the flight recorder is
// always attached).
func (w *Worker) Tracer() *obs.Tracer { return w.tracer }

// acceptLoop admits inbound peer connections for the whole session. Each
// accepted hello is parked; setup and the epoch-change handler claim
// parked links when they expect them. Higher-numbered shards dial this
// listener — at first assembly and again whenever they rejoin after a
// crash.
func (w *Worker) acceptLoop() {
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			return
		}
		go w.admitPeer(conn)
	}
}

// admitPeer validates one inbound hello and parks the link.
func (w *Worker) admitPeer(conn net.Conn) {
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	f, err := readFrame(conn)
	if err != nil {
		_ = conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	var h helloMsg
	if f.typ != frameHello || decodeJSON(f, &h) != nil {
		_ = conn.Close()
		return
	}
	if h.Proto != proto || h.Shard <= w.cfg.Shard {
		_ = conn.Close()
		return
	}
	l := w.track(h.Shard, conn)
	w.pmu.Lock()
	if old := w.parked[h.Shard]; old != nil {
		old.close()
	}
	w.parked[h.Shard] = l
	note := w.pnote
	w.pnote = make(chan struct{})
	w.pmu.Unlock()
	close(note)
}

// takeParked claims the parked link of one peer, waiting up to timeout
// for it to arrive.
func (w *Worker) takeParked(peer int, timeout time.Duration) (*link, error) {
	deadline := time.Now().Add(timeout)
	for {
		w.pmu.Lock()
		if l := w.parked[peer]; l != nil {
			delete(w.parked, peer)
			w.pmu.Unlock()
			return l, nil
		}
		note := w.pnote
		w.pmu.Unlock()
		wait := time.Until(deadline)
		if wait <= 0 {
			return nil, fmt.Errorf("cluster: shard %d never connected to shard %d within %v", peer, w.cfg.Shard, timeout)
		}
		t := time.NewTimer(wait)
		select {
		case <-note:
			t.Stop()
		case <-t.C:
		}
	}
}

// Run completes the pairwise link setup and serves jobs until the
// coordinator shuts the session down (nil) or the session breaks (error).
func (w *Worker) Run() error {
	links, err := w.setup()
	defer func() {
		w.stopHeartbeat()
		for _, l := range links {
			if l != nil {
				l.close()
			}
		}
		if w.link0 != nil && links == nil {
			w.link0.close()
		}
		w.pmu.Lock()
		for _, l := range w.parked {
			l.close()
		}
		w.parked = map[int]*link{}
		w.pmu.Unlock()
		_ = w.ln.Close()
	}()
	if err != nil {
		return err
	}
	shards := len(links)
	for {
		// Idle between jobs is normal (a -serve cluster may not see a
		// submission for hours); only a dead connection ends the wait.
		f, err := w.link0.nextWait()
		if err != nil {
			return err
		}
		switch f.typ {
		case frameStart:
			var st startMsg
			if err := decodeJSON(f, &st); err != nil {
				return err
			}
			pr := runShard(links, w.cfg.Shard, shards, st.JobID, st.Spec, w.compress, w.tracer)
			w.statsMu.Lock()
			w.stats.addJob(pr)
			w.statsMu.Unlock()
			if err := w.link0.writeJSON(frameResult, pr); err != nil {
				return err
			}
			if err := w.link0.flush(); err != nil {
				return err
			}
			// A failed job (a dead peer mid-barrier, a round cap) does not
			// end the worker: the coordinator decides whether the session
			// recovers (an epoch change) or breaks.
		case frameLease:
			l, err := wire.DecodeLease(f.payload)
			if err != nil {
				return err
			}
			w.startHeartbeat(l)
		case frameEpoch:
			ec, err := wire.DecodeEpochChange(f.payload)
			if err != nil {
				return err
			}
			if err := w.epochChange(links, ec); err != nil {
				return err
			}
		case frameShutdown:
			return nil
		case frameData, frameDataZ, frameAbort:
			// Stale leftovers of a job that died mid-barrier; the next
			// epoch change (or shutdown) follows.
		default:
			return fmt.Errorf("cluster: worker expected start, lease, epoch, or shutdown, got %s", frameName(f.typ))
		}
	}
}

// startHeartbeat begins beating under a fresh lease, replacing any
// previous beater.
func (w *Worker) startHeartbeat(lease wire.Lease) {
	w.stopHeartbeat()
	every := time.Duration(lease.HeartMillis) * time.Millisecond
	if every <= 0 {
		every = defaultHeartEvery
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	w.heartStop, w.heartDone = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		var seq uint64
		var buf []byte
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				seq++
				buf = wire.AppendHeartbeat(buf[:0], wire.Heartbeat{Epoch: lease.Epoch, Shard: w.cfg.Shard, Seq: seq})
				if w.link0.writeFlush(frameHeart, buf) != nil {
					// A dead coordinator link ends the session through the
					// main loop's read; nothing to do here.
					return
				}
			}
		}
	}()
}

// stopHeartbeat stops the beater and waits for it, so no heart frame can
// trail onto the wire after the epoch ack.
func (w *Worker) stopHeartbeat() {
	if w.heartStop == nil {
		return
	}
	close(w.heartStop)
	<-w.heartDone
	w.heartStop, w.heartDone = nil, nil
}

// epochChange quiesces this worker for a new supervision epoch: stop
// heartbeating, drop links to dead peers, exchange drain markers with the
// surviving ones (flushing any stale frames of an aborted job), wire up a
// rejoining peer, and ack to the coordinator. After the ack this worker's
// links are clean: the next job's barrier frames are the next bytes.
func (w *Worker) epochChange(links []*link, ec wire.EpochChange) error {
	w.stopHeartbeat()
	if len(ec.Live) != len(links) {
		return fmt.Errorf("cluster: epoch %d names %d shards, session has %d", ec.Epoch, len(ec.Live), len(links))
	}
	// Drop dead peers first: their queues may hold stale frames nobody
	// will read.
	for p := 1; p < len(links); p++ {
		if p == w.cfg.Shard || ec.Live[p] || links[p] == nil {
			continue
		}
		links[p].close()
		links[p] = nil
	}
	// Marker exchange with surviving peers (the rejoiner's link is fresh
	// on both sides — nothing stale to drain). Write-all-then-read-all,
	// like the barrier: reader goroutines keep every write unblocked.
	var marker []byte
	marker = binary.AppendUvarint(marker, ec.Epoch)
	for p := 1; p < len(links); p++ {
		if p == w.cfg.Shard || p == ec.Rejoin || links[p] == nil || !ec.Live[p] {
			continue
		}
		if err := links[p].writeFlush(frameEpochAck, marker); err != nil {
			// The peer died under us; the coordinator will announce it
			// next epoch.
			links[p].close()
			links[p] = nil
		}
	}
	for p := 1; p < len(links); p++ {
		if p == w.cfg.Shard || p == ec.Rejoin || links[p] == nil || !ec.Live[p] {
			continue
		}
		if err := drainUntilEpoch(links[p], ec.Epoch); err != nil {
			links[p].close()
			links[p] = nil
		}
	}
	// Wire up a rejoining peer: lower ids get dialed by us, higher ids
	// dial our listener (the same dial-lower/accept-higher rule as
	// assembly).
	if r := ec.Rejoin; r >= 0 && r != w.cfg.Shard && r < len(links) {
		if links[r] != nil {
			links[r].close()
			links[r] = nil
		}
		if r < w.cfg.Shard && r >= 1 {
			conn, err := net.DialTimeout("tcp", ec.RejoinAddr, w.cfg.DialTimeout)
			if err == nil {
				if err := writeJSONFrame(conn, frameHello, helloMsg{Proto: proto, Shard: w.cfg.Shard}); err == nil {
					links[r] = w.track(r, conn)
				} else {
					_ = conn.Close()
				}
			}
			// A failed dial leaves the link down; the next epoch change
			// will retry or declare the rejoiner dead again.
		} else if r > w.cfg.Shard {
			if l, err := w.takeParked(r, rejoinWait); err == nil {
				links[r] = l
			}
		}
	}
	return w.link0.writeFlush(frameEpochAck, marker)
}

// drainUntilEpoch consumes stale frames from one peer link until the
// epoch marker arrives.
func drainUntilEpoch(l *link, epoch uint64) error {
	for {
		f, err := l.next()
		if err != nil {
			return err
		}
		switch f.typ {
		case frameEpochAck:
			e, rest, err := wire.ReadUvarint(f.payload)
			if err != nil || len(rest) != 0 {
				return fmt.Errorf("cluster: corrupt epoch marker from shard %d", l.peer)
			}
			if e == epoch {
				return nil
			}
			// An older epoch's marker: keep draining.
		case frameData, frameDataZ, frameAbort, frameHeart:
			// Stale leftovers of the aborted job.
		default:
			return fmt.Errorf("cluster: unexpected %s from shard %d while draining epoch %d", frameName(f.typ), l.peer, epoch)
		}
	}
}

// setup consumes the peer directory and establishes the pairwise links:
// dial every lower-numbered live worker, accept every higher-numbered
// one. The listener stays open afterwards — crashed peers rejoin through
// it mid-session.
func (w *Worker) setup() ([]*link, error) {
	// The directory arrives only once every shard has joined — and a
	// human starting workers by hand may take minutes between them.
	f, err := w.link0.nextWait()
	if err != nil {
		return nil, err
	}
	if f.typ != framePeers {
		return nil, fmt.Errorf("cluster: expected peers from the coordinator, got %s", frameName(f.typ))
	}
	var peers peersMsg
	if err := decodeJSON(f, &peers); err != nil {
		return nil, err
	}
	w.compress = peers.Compress
	shards := len(peers.Addrs)
	if w.cfg.Shard >= shards {
		return nil, fmt.Errorf("cluster: shard id %d outside the %d-shard directory", w.cfg.Shard, shards)
	}
	if peers.Live != nil && len(peers.Live) != shards {
		return nil, fmt.Errorf("cluster: live vector names %d shards, directory %d", len(peers.Live), shards)
	}
	live := func(p int) bool { return peers.Live == nil || peers.Live[p] }
	links := make([]*link, shards)
	links[0] = w.link0
	for p := 1; p < w.cfg.Shard; p++ {
		if !live(p) {
			continue
		}
		conn, err := net.DialTimeout("tcp", peers.Addrs[p], w.cfg.DialTimeout)
		if err != nil {
			return links, fmt.Errorf("cluster: dialing shard %d at %s: %w", p, peers.Addrs[p], err)
		}
		if err := writeJSONFrame(conn, frameHello, helloMsg{Proto: proto, Shard: w.cfg.Shard}); err != nil {
			_ = conn.Close()
			return links, err
		}
		links[p] = w.track(p, conn)
	}
	for p := w.cfg.Shard + 1; p < shards; p++ {
		if !live(p) {
			continue
		}
		l, err := w.takeParked(p, 60*time.Second)
		if err != nil {
			return links, err
		}
		links[p] = l
	}
	if err := w.link0.writeJSON(frameUp, upMsg{Shard: w.cfg.Shard}); err != nil {
		return links, err
	}
	if err := w.link0.flush(); err != nil {
		return links, err
	}
	return links, nil
}
