package engine

import (
	"errors"
	"time"

	"wcle/internal/graph"
	"wcle/internal/sim"
)

// BatchOptions parameterizes RunMany: many independent runs of one
// protocol on one graph, sharded across a worker pool. Trial i runs at
// sim.DeriveSeed(Base.Seed, i), so switching a batch between protocols
// never changes which seeds its trials see.
type BatchOptions struct {
	// Base is the per-run option template; Base.Seed is the master seed.
	// Each trial runs on one shard goroutine (see sim.MultiRunner).
	Base Options
	// Trials is the number of runs.
	Trials int
	// Workers is the shard count (0 = runtime.NumCPU()).
	Workers int
	// NewFault, when non-nil, builds trial i's fault plane. Faulty batches
	// must use it: fault planes are stateful per run, so a single
	// Base.Fault instance would be shared across concurrent trials and
	// RunMany rejects it.
	NewFault func(trial int) sim.FaultPlane
	// CollectTrials retains the per-trial vectors (rounds, messages) in
	// the result so callers can compute distributional summaries instead
	// of settling for batch totals. Off by default: bulk sweeps that only
	// need totals skip the extra retention.
	CollectTrials bool
}

// BatchResult aggregates a protocol RunMany batch.
type BatchResult struct {
	// Protocol is the registry name of the protocol that ran the batch.
	Protocol string
	Trials   int

	// Totals across trials.
	Messages   int64
	Bits       int64
	FaultDrops int64
	Delayed    int64
	Rounds     int64

	// Wall-clock of the whole batch and the resulting throughput.
	Elapsed    time.Duration
	RunsPerSec float64

	// Shards is the per-shard aggregation from the worker pool.
	Shards []sim.ShardStats

	// Per-trial vectors, indexed by trial; populated only when
	// BatchOptions.CollectTrials is set.
	TrialRounds   []int32
	TrialMessages []int64
}

// RunMany executes opts.Trials independent runs of p on g across a sharded
// worker pool, the one batch loop of the repo. fold, when non-nil, receives
// trial i's result once the trial has run (internal/algo tallies election
// outcomes through it). It is called from the shard goroutine that ran the
// trial, so it must only write state indexed by i; an error aborts the
// batch. Everything except the wall-clock fields of the result is
// deterministic in (p, g, opts.Base.Seed, opts.Trials).
func RunMany(p Protocol, g *graph.Graph, opts BatchOptions, fold func(i int, res *Result) error) (*BatchResult, error) {
	if opts.Trials <= 0 {
		return &BatchResult{Protocol: p.Name()}, nil
	}
	if opts.Base.Fault != nil && opts.NewFault == nil {
		// Fault planes are stateful per run; one instance shared across
		// shard goroutines would race and break batch determinism.
		return nil, errors.New("engine: BatchOptions.Base.Fault would be shared across concurrent trials; supply NewFault instead")
	}
	rounds := make([]int32, opts.Trials)
	mr := &sim.MultiRunner{Workers: opts.Workers}
	start := time.Now()
	metrics, shards, err := mr.RunBatch(opts.Trials, func(i int) (sim.Metrics, error) {
		o := opts.Base
		o.Seed = sim.DeriveSeed(opts.Base.Seed, uint64(i))
		if opts.NewFault != nil {
			o.Fault = opts.NewFault(i)
		}
		res, err := Run(p, g, o)
		if err != nil {
			return sim.Metrics{}, err
		}
		if fold != nil {
			if err := fold(i, res); err != nil {
				return sim.Metrics{}, err
			}
		}
		rounds[i] = int32(res.Rounds)
		return res.Metrics, nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	out := &BatchResult{
		Protocol: p.Name(),
		Trials:   opts.Trials,
		Elapsed:  elapsed,
		Shards:   shards,
	}
	if s := elapsed.Seconds(); s > 0 {
		out.RunsPerSec = float64(opts.Trials) / s
	}
	for i, m := range metrics {
		out.Messages += m.Messages
		out.Bits += m.Bits
		out.FaultDrops += m.FaultDrops
		out.Delayed += m.Delayed
		out.Rounds += int64(rounds[i])
	}
	if opts.CollectTrials {
		out.TrialRounds = rounds
		out.TrialMessages = make([]int64, opts.Trials)
		for i, m := range metrics {
			out.TrialMessages[i] = m.Messages
		}
	}
	return out, nil
}
