package cluster

// Client side: submit elections to a running cluster's coordinator over
// TCP. cmd/electnode -submit, electd's cluster mode, and the wcle facade's
// ElectCluster all go through here.

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"wcle/internal/algo"
	"wcle/internal/obs"
	"wcle/internal/serve"
)

// Client is one connection to a coordinator, good for any number of
// sequential submissions. Safe for concurrent use; submissions serialize
// on the connection (the coordinator serializes jobs anyway).
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	w    *bufio.Writer
}

// Dial connects to a coordinator.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("cluster: dialing coordinator %s: %w", addr, err)
	}
	return &Client{conn: conn, w: bufio.NewWriter(conn)}, nil
}

// Run submits one job (an election, or any engine protocol with
// spec.Protocol set) and blocks until the merged result.
func (c *Client) Run(spec JobSpec) (*Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := writeJSONFrame(c.w, frameSubmit, spec); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	f, err := readFrame(c.conn)
	if err != nil {
		return nil, fmt.Errorf("cluster: awaiting outcome: %w", err)
	}
	if f.typ != frameOutcome {
		return nil, fmt.Errorf("cluster: expected outcome, got %s", frameName(f.typ))
	}
	var out outcomeMsg
	if err := decodeJSON(f, &out); err != nil {
		return nil, err
	}
	if out.Err != "" {
		return nil, fmt.Errorf("cluster: %s", out.Err)
	}
	if out.Result == nil {
		return nil, fmt.Errorf("cluster: coordinator answered with neither result nor error")
	}
	return out.Result, nil
}

// Close releases the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn.Close()
}

// RunElection implements electd's serve.ClusterElector: one election on
// the cluster, returning the merged backend-independent outcome plus the
// wire traffic it cost (electd exports it through /metrics). The fault
// spec rides along — every plane it can express is shard-safe, so the
// outcome stays seed-deterministic on the wire.
func (c *Client) RunElection(spec serve.GraphSpec, algorithm string, seed int64, assumedN int, fault serve.FaultSpec) (*algo.Outcome, serve.ClusterWire, error) {
	res, err := c.Run(JobSpec{
		Graph:     spec,
		Algorithm: algorithm,
		Seed:      seed,
		AssumedN:  assumedN,
		Fault:     fault,
	})
	if err != nil {
		return nil, serve.ClusterWire{}, err
	}
	w := res.Wire
	return &res.Outcome, serve.ClusterWire{
		Frames:           w.Frames,
		Bytes:            w.Bytes,
		Envelopes:        w.Envelopes,
		Barriers:         w.Barriers,
		CompressedFrames: w.CompressedFrames,
		RawBytes:         w.RawBytes,
		CompressedBytes:  w.CompressedBytes,
	}, nil
}

// Submit is the one-shot convenience: dial, elect, close.
func Submit(addr string, spec JobSpec) (*Result, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Run(spec)
}

// Local is an in-process cluster on loopback TCP: a coordinator plus
// shards-1 worker goroutines, each speaking the real wire protocol.
// Tests, experiments (E19, E20), and examples use it to get wire-level
// elections — and process-shaped crashes via Kill/Restart — without
// spawning processes.
type Local struct {
	Coord *Coordinator

	traceSink obs.Sink // forwarded to restarted workers too

	mu      sync.Mutex
	workers map[int]*localWorker
}

// localWorker is one worker goroutine standing in for a shard process.
type localWorker struct {
	w    *Worker
	done chan error
}

// LocalOptions tunes a StartLocalWith cluster.
type LocalOptions struct {
	// Compress enables threshold-gated flate compression of data frames.
	Compress bool
	// TraceSink, when non-nil, receives every trace event of every shard
	// (coordinator and workers share it; sinks are concurrency-safe).
	TraceSink obs.Sink
}

// StartLocal assembles a shards-process-shaped cluster inside this
// process, on 127.0.0.1 ephemeral ports.
func StartLocal(shards int) (*Local, error) {
	return StartLocalWith(shards, LocalOptions{})
}

// StartLocalWith is StartLocal with session options.
func StartLocalWith(shards int, opt LocalOptions) (*Local, error) {
	coord, err := NewCoordinator(CoordinatorConfig{
		Listen:    "127.0.0.1:0",
		Shards:    shards,
		Compress:  opt.Compress,
		TraceSink: opt.TraceSink,
	})
	if err != nil {
		return nil, err
	}
	l := &Local{Coord: coord, traceSink: opt.TraceSink, workers: map[int]*localWorker{}}
	for i := 1; i < shards; i++ {
		if err := l.startWorker(i); err != nil {
			l.Close()
			return nil, err
		}
	}
	return l, nil
}

func (l *Local) startWorker(shard int) error {
	w, err := NewWorker(WorkerConfig{Bootstrap: l.Coord.Addr(), Shard: shard, Listen: "127.0.0.1:0", TraceSink: l.traceSink})
	if err != nil {
		return err
	}
	lw := &localWorker{w: w, done: make(chan error, 1)}
	l.mu.Lock()
	l.workers[shard] = lw
	l.mu.Unlock()
	go func() { lw.done <- w.Run() }()
	return nil
}

// Run runs one job on the local cluster (see Coordinator.Run).
func (l *Local) Run(spec JobSpec) (*Result, error) { return l.Coord.Run(spec) }

// TraceEvents merges every shard's flight-recorder snapshot (coordinator
// plus all running workers) into one timeline ordered by wall-clock start
// — the whole-cluster trace an E19-style run leaves behind without any
// sink configured up front.
func (l *Local) TraceEvents() []obs.Ev {
	evs := l.Coord.Flight().Snapshot()
	l.mu.Lock()
	for _, lw := range l.workers {
		evs = append(evs, lw.w.Flight().Snapshot()...)
	}
	l.mu.Unlock()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	return evs
}

// Kill crashes one worker shard the way a dying process would: every
// connection and its listener close abruptly, mid-frame if one is in
// flight. It waits for the worker goroutine to exit. For fault tests;
// only meaningful under supervision (an unsupervised session breaks).
func (l *Local) Kill(shard int) error {
	l.mu.Lock()
	lw := l.workers[shard]
	delete(l.workers, shard)
	l.mu.Unlock()
	if lw == nil {
		return fmt.Errorf("cluster: no running worker for shard %d", shard)
	}
	lw.w.Kill()
	select {
	case <-lw.done:
		return nil
	case <-time.After(30 * time.Second):
		return fmt.Errorf("cluster: shard %d did not exit within 30s of Kill", shard)
	}
}

// Restart brings a killed shard back: a fresh worker joins through the
// bootstrap address and rejoins the supervised session at the next epoch
// boundary.
func (l *Local) Restart(shard int) error {
	l.mu.Lock()
	running := l.workers[shard] != nil
	l.mu.Unlock()
	if running {
		return fmt.Errorf("cluster: shard %d is still running", shard)
	}
	return l.startWorker(shard)
}

// Close shuts the cluster down and waits for the workers to exit.
func (l *Local) Close() error {
	l.Coord.Shutdown()
	l.mu.Lock()
	workers := make([]*localWorker, 0, len(l.workers))
	for _, lw := range l.workers {
		workers = append(workers, lw)
	}
	l.workers = map[int]*localWorker{}
	l.mu.Unlock()
	var firstErr error
	for _, lw := range workers {
		select {
		case err := <-lw.done:
			if err != nil && firstErr == nil {
				firstErr = err
			}
		case <-time.After(10 * time.Second):
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: worker did not exit within 10s of shutdown")
			}
		}
	}
	return firstErr
}
