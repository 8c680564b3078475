// Package engine is the protocol substrate every runtime layer runs on:
// a first-class Protocol contract (per-node state machine + declared
// output vector) over the synchronous CONGEST simulator of internal/sim,
// plus a named registry mirroring internal/algo.
//
// A Protocol is the static description of a distributed algorithm: a name,
// the labels of the per-node decision vector it produces, and an Init that
// instantiates per-node state machines for one graph. The engine runs any
// Protocol on any delivery plane — the in-process sim, the sharded TCP
// cluster runtime (via sim.RemotePlane), and every fault-plane adversary —
// under one determinism contract: the same (protocol, graph, seed) produce
// identical outputs, metrics, and per-node message counts wherever they
// run. Leader election is one protocol here; push-pull broadcast, BFS
// spanning trees, and tree aggregation (this package's built-ins) are
// others, and internal/algo registers the election backends so the whole
// registry is runnable by the cluster, the conformance battery, and the
// experiment harness without protocol-specific plumbing.
package engine

import (
	"errors"
	"fmt"

	"wcle/internal/graph"
	"wcle/internal/obs"
	"wcle/internal/sim"
)

// Node is the per-node state machine of a running protocol instance. Step
// is the sim.Process contract (invoked at any round the node is awake);
// Output is the node's decision vector at quiescence, with one entry per
// Protocol.Slots label. Output must be pure: reading it cannot change
// subsequent behavior.
type Node interface {
	Step(ctx *sim.Context, inbox []sim.Envelope) error
	Output() []int64
}

// Instance is one run's worth of per-node machines plus the run limits the
// protocol derived from the graph. Instances are single-use: Run consumes
// one, and protocol adapters may type-assert it afterwards to read richer
// native state (internal/algo does, to build election outcomes).
type Instance interface {
	// Node returns the machine for node v.
	Node(v int) Node
	// Limits reports the instance's message-size cap and default round cap.
	Limits() Limits
}

// Limits bounds one protocol run.
type Limits struct {
	// MaxMessageBits is the per-message bit cap (the model regime the
	// protocol declared for this graph size).
	MaxMessageBits int
	// MaxRounds is the default round cap; Options.MaxRounds overrides it.
	MaxRounds int
}

// Protocol is one distributed algorithm runnable on every delivery plane.
// Implementations must be cheap, immutable configuration holders, safe for
// concurrent use; all per-run state lives in the Instance.
type Protocol interface {
	// Name is the protocol's registry name.
	Name() string
	// Slots labels the entries of every node's Output vector.
	Slots() []string
	// Init builds the per-node machines for one run on g.
	Init(g *graph.Graph) (Instance, error)
}

// Options are the protocol-independent knobs of one run, and the only
// per-run option set in the repo: every layer (core, baseline, algo, the
// cluster, serve, experiments, the facade) passes them through unchanged
// to Simulate, the one place they become a sim.Config, so a fault plane or
// a budget means the same thing whichever protocol runs.
type Options struct {
	// Seed drives all randomness of the run deterministically.
	Seed int64
	// Budget, when positive, drops sends beyond the budget (counted in
	// Metrics.Dropped).
	Budget int64
	// MaxRounds overrides the instance's default round cap (0 = default).
	MaxRounds int
	// Concurrent selects the goroutine-per-awake-node engine.
	Concurrent bool
	// LeanMetrics skips per-kind message accounting on the send hot path
	// (Metrics.ByKind stays empty; a trace.KindCounter observer still
	// counts kinds). Bulk experiment trials enable it.
	LeanMetrics bool
	// DebugFrom stamps sender indices on delivered envelopes (debugging
	// only; the conformance battery asserts outcomes never depend on it).
	DebugFrom bool
	// CountSends tallies per-node send counts into Result.PerNodeMessages
	// (Simulate's second result). Opt-in: the counter taps every send, and bulk in-process runs don't
	// want the overhead. The cluster runtime always enables it — per-node
	// counts are what the keystone invariant is stated in terms of.
	CountSends bool
	// Observer taps every accepted send.
	Observer sim.Observer
	// Fault, when non-nil, is the run's delivery-plane adversary.
	Fault sim.FaultPlane
	// FaultObserver receives every fault event of the run.
	FaultObserver sim.FaultObserver
	// Remote, when non-nil, hosts this run's shard of a distributed run
	// (sim.Config.Remote): only locally hosted nodes step, and only their
	// outputs are collected.
	Remote sim.RemotePlane
	// Tracer, when non-nil, records the run's spans and instants
	// (sim.Config.Tracer). Strictly observational: a traced run is
	// byte-identical to an untraced one at the same seed.
	Tracer *obs.Tracer
}

// Result is the protocol-independent report of one run.
type Result struct {
	// Protocol is the registry name of the protocol that produced this.
	Protocol string `json:"protocol"`
	// Slots labels the entries of each output vector.
	Slots []string `json:"slots,omitempty"`
	// Outputs[v] is node v's decision vector. On a sharded run only
	// locally hosted nodes are filled; the rest stay nil (the cluster
	// merge reassembles the whole).
	Outputs [][]int64 `json:"outputs,omitempty"`
	// PerNodeMessages[v] counts node v's accepted sends; nil unless
	// Options.CountSends was set.
	PerNodeMessages []int64 `json:"per_node_messages,omitempty"`
	// Rounds is the simulated round at which all activity ceased.
	Rounds int `json:"rounds"`
	// Metrics is the sim-level cost accounting of the run.
	Metrics sim.Metrics `json:"metrics"`
}

// TraceSummarizer is an optional Instance extension: at end of run,
// RunInstance emits the returned (name, args) as one instant event in
// category "engine" when a tracer is attached. Implementations must keep
// the summary observational — reading it cannot change protocol behavior.
type TraceSummarizer interface {
	TraceSummary() (name string, args map[string]int64)
}

// SendCounter tallies per-node accepted sends through the observer tap.
// The cluster runtime's per-node message accounting and Result.
// PerNodeMessages both come from here.
type SendCounter struct {
	Counts []int64
}

// OnSend implements sim.Observer.
func (c *SendCounter) OnSend(round, from, fromPort, to, toPort int, m sim.Message) {
	c.Counts[from]++
}

// teeObserver fans one send event out to two observers.
type teeObserver struct {
	a, b sim.Observer
}

func (t teeObserver) OnSend(round, from, fromPort, to, toPort int, m sim.Message) {
	t.a.OnSend(round, from, fromPort, to, toPort, m)
	t.b.OnSend(round, from, fromPort, to, toPort, m)
}

// Run executes one run of p on g: Init plus RunInstance.
func Run(p Protocol, g *graph.Graph, opts Options) (*Result, error) {
	inst, err := p.Init(g)
	if err != nil {
		return nil, err
	}
	return RunInstance(p, g, inst, opts)
}

// RunInstance executes an already-initialized instance of p on g and
// collects every hosted node's output vector. Callers that need the
// instance's native state afterwards (the election adapters of
// internal/algo) initialize it themselves and keep the reference.
func RunInstance(p Protocol, g *graph.Graph, inst Instance, opts Options) (*Result, error) {
	if inst == nil {
		return nil, fmt.Errorf("engine: %s: nil instance", p.Name())
	}
	metrics, counts, err := Simulate(g, inst, opts)
	if err != nil {
		return nil, fmt.Errorf("engine: %s run failed: %w", p.Name(), err)
	}
	n := g.N()
	res := &Result{
		Protocol:        p.Name(),
		Slots:           p.Slots(),
		Outputs:         make([][]int64, n),
		PerNodeMessages: counts,
		Rounds:          metrics.FinalRound,
		Metrics:         metrics,
	}
	for v := 0; v < n; v++ {
		if opts.Remote != nil && !opts.Remote.Local(v) {
			continue
		}
		res.Outputs[v] = inst.Node(v).Output()
	}
	return res, nil
}

// Simulate runs inst's node machines on g under opts and returns the run's
// metrics, plus per-node send counts when opts.CountSends is set. It is
// the one runner of a sim.Config: RunInstance, core.Run and baseline.Run
// all go through it, and callers that fold the instance's native state
// themselves skip RunInstance's output vectors.
func Simulate(g *graph.Graph, inst Instance, opts Options) (sim.Metrics, []int64, error) {
	if g == nil {
		return sim.Metrics{}, nil, errors.New("engine: graph is required")
	}
	cfg, counter := simConfig(g, inst.Limits(), opts)
	procs := make([]sim.Process, g.N())
	for v := range procs {
		procs[v] = inst.Node(v)
	}
	metrics, err := sim.Run(cfg, procs)
	if err != nil {
		return sim.Metrics{}, nil, err
	}
	// Instances may fold protocol-internal counters into the trace (the
	// committee validator reports its claim-validation traffic).
	if ts, ok := inst.(TraceSummarizer); ok && opts.Tracer.Enabled() {
		name, args := ts.TraceSummary()
		opts.Tracer.Instant("engine", name, -1, args)
	}
	var counts []int64
	if counter != nil {
		counts = counter.Counts
	}
	return metrics, counts, nil
}

// simConfig is the one mapping from run options onto a sim.Config: a new
// Options field is wired here and nowhere else (TestSimConfigWiresEveryOption
// fails until it is). The returned counter is non-nil exactly when
// opts.CountSends taps the sends.
func simConfig(g *graph.Graph, lim Limits, opts Options) (sim.Config, *SendCounter) {
	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = lim.MaxRounds
	}
	observer := opts.Observer
	var counter *SendCounter
	if opts.CountSends {
		counter = &SendCounter{Counts: make([]int64, g.N())}
		if observer != nil {
			observer = teeObserver{a: counter, b: observer}
		} else {
			observer = counter
		}
	}
	return sim.Config{
		Graph:          g,
		Seed:           opts.Seed,
		MaxRounds:      maxRounds,
		MaxMessageBits: lim.MaxMessageBits,
		MessageBudget:  opts.Budget,
		Concurrent:     opts.Concurrent,
		LeanMetrics:    opts.LeanMetrics,
		DebugFrom:      opts.DebugFrom,
		Observer:       observer,
		Fault:          opts.Fault,
		FaultObserver:  opts.FaultObserver,
		Remote:         opts.Remote,
		Tracer:         opts.Tracer,
	}, counter
}
