package core

import (
	"fmt"

	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/protocol"
	"wcle/internal/sim"
)

// Result summarizes one election run.
type Result struct {
	// Leaders lists node indices with the leader flag raised. Success
	// means exactly one.
	Leaders   []int
	LeaderIDs []protocol.ID
	Success   bool

	// Contenders lists the self-selected candidate nodes; Stopped those
	// that satisfied both properties, Suppressed those that quit after a
	// winner sighting, Failed those that hit the walk-length cap.
	Contenders []int
	Stopped    []int
	Suppressed []int
	Failed     []int

	// FinalTu maps contender node index -> last walk-length guess.
	FinalTu map[int]int
	// PhasesUsed is the highest phase index any contender reached, plus 1.
	PhasesUsed int

	// LeaderRound is the round of the (first) self-election, -1 if none.
	LeaderRound int
	// Rounds is the simulated round at which all activity ceased.
	Rounds int

	Metrics    sim.Metrics
	StaleDrops int64

	// ProxyTotals maps contender node index -> total walk completions
	// registered network-wide for that contender's last phase. In an
	// unbudgeted run every launched token eventually completes, so this
	// equals Walks for every contender whose last phase ran fully (the
	// conservation invariant; see TestTokenConservation).
	ProxyTotals map[int]int
	// DistinctProxies maps contender node index -> nodes where exactly one
	// of its walks ended (the Distinctness Property's quantity).
	DistinctProxies map[int]int

	// Resolved parameters, for reporting.
	Walks             int
	InterThreshold    int
	DistinctThreshold int
	ContenderProb     float64
}

// Instance is one run's worth of per-node election machines. It implements
// engine.Instance, so the generic engine (and through it the cluster
// runtime) can drive the paper's algorithm like any other protocol; Collect
// folds the machines' final state into the native Result afterwards.
type Instance struct {
	rt    *runtime
	nodes []*node
}

// Build constructs the per-node machines of one election on g under cfg.
func Build(g *graph.Graph, cfg Config) (*Instance, error) {
	believedN := g.N()
	if cfg.AssumedN > 0 {
		believedN = cfg.AssumedN
	}
	rt, err := newRuntime(believedN, g.N(), cfg)
	if err != nil {
		return nil, err
	}
	// One pool for the whole election: its nodes step one at a time, and
	// each run (each batch trial, each cluster shard) builds its own.
	pool := &protocol.MsgPool{}
	nodes := make([]*node, g.N())
	for v := 0; v < g.N(); v++ {
		nodes[v] = newNode(rt, v, g.Degree(v), pool)
	}
	return &Instance{rt: rt, nodes: nodes}, nil
}

// Node implements engine.Instance.
func (i *Instance) Node(v int) engine.Node { return i.nodes[v] }

// Limits implements engine.Instance: the CONGEST cap of the resolved codec
// and the schedule-derived default round cap.
func (i *Instance) Limits() engine.Limits {
	last := i.rt.sched.numPhases() - 1
	return engine.Limits{
		MaxMessageBits: i.rt.codec.Cap(),
		MaxRounds:      i.rt.sched.ends[last] + 2*i.rt.sched.stage[last] + 1000,
	}
}

// Collect folds the instance's post-run node state into the native Result.
func (i *Instance) Collect(metrics sim.Metrics) *Result {
	return collect(i.nodes, metrics, i.rt)
}

// Run executes one election of the paper's algorithm (or the known-tmix
// baseline when cfg.FixedWalkLen is set) on g: Build, engine.Simulate,
// Collect.
func Run(g *graph.Graph, cfg Config, opts engine.Options) (*Result, error) {
	inst, err := Build(g, cfg)
	if err != nil {
		return nil, err
	}
	metrics, _, err := engine.Simulate(g, inst, opts)
	if err != nil {
		return nil, fmt.Errorf("core: election run failed: %w", err)
	}
	return inst.Collect(metrics), nil
}

func collect(nodes []*node, metrics sim.Metrics, rt *runtime) *Result {
	res := &Result{
		FinalTu:           make(map[int]int),
		LeaderRound:       -1,
		Rounds:            metrics.FinalRound,
		Metrics:           metrics,
		Walks:             rt.walks,
		InterThreshold:    rt.interT,
		DistinctThreshold: rt.distT,
		ContenderProb:     rt.pCont,
		ProxyTotals:       make(map[int]int),
		DistinctProxies:   make(map[int]int),
	}
	// Network-wide proxy accounting per contender, keyed by protocol id.
	idToIdx := make(map[protocol.ID]int)
	phaseOf := make(map[protocol.ID]int)
	for _, nd := range nodes {
		if nd.contender {
			idToIdx[nd.id] = nd.idx
			phaseOf[nd.id] = nd.phase
		}
	}
	for _, nd := range nodes {
		for i, origin := range nd.origins {
			tr := nd.treev[i]
			idx, ok := idToIdx[origin]
			if !ok || tr.phase != phaseOf[origin] || tr.proxyCount == 0 {
				continue
			}
			res.ProxyTotals[idx] += tr.proxyCount
			if tr.proxyCount == 1 {
				res.DistinctProxies[idx]++
			}
		}
	}
	for _, nd := range nodes {
		res.StaleDrops += nd.staleDrops
		if !nd.contender {
			continue
		}
		res.Contenders = append(res.Contenders, nd.idx)
		if nd.phase+1 > res.PhasesUsed {
			res.PhasesUsed = nd.phase + 1
		}
		if nd.phase >= 0 {
			res.FinalTu[nd.idx] = rt.sched.tus[nd.phase]
		}
		if nd.stopped {
			res.Stopped = append(res.Stopped, nd.idx)
		}
		if nd.suppressed {
			res.Suppressed = append(res.Suppressed, nd.idx)
		}
		if nd.failed {
			res.Failed = append(res.Failed, nd.idx)
		}
		if nd.leader {
			res.Leaders = append(res.Leaders, nd.idx)
			res.LeaderIDs = append(res.LeaderIDs, nd.id)
			if res.LeaderRound == -1 || nd.leadRound < res.LeaderRound {
				res.LeaderRound = nd.leadRound
			}
		}
	}
	res.Success = len(res.Leaders) == 1
	return res
}
