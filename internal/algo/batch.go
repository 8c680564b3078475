package algo

import (
	"wcle/internal/engine"
	"wcle/internal/graph"
)

// BatchResult aggregates a RunMany batch: the engine batch's totals plus
// the election tallies folded from every trial's Outcome.
type BatchResult struct {
	engine.BatchResult

	// Leader-count outcomes: exactly one, none, more than one.
	One, Zero, Multi int
	// Contenders totals Outcome.Contenders across trials.
	Contenders int

	// Per-trial vectors, indexed by trial; populated only when
	// BatchOptions.CollectTrials is set. TrialOutcomes holds 0 (no
	// leader), 1 (unique leader), or 2 (multiple leaders).
	TrialOutcomes   []int8
	TrialContenders []int32
}

// RunMany executes opts.Trials independent elections of p on g through
// engine.RunMany, folding each trial's Finish outcome into the election
// tallies. Everything except the wall-clock fields of the result is
// deterministic in (p, g, opts.Base.Seed, opts.Trials).
func RunMany(p ElectionProtocol, g *graph.Graph, opts engine.BatchOptions) (*BatchResult, error) {
	outcomes := make([]int8, max(opts.Trials, 0))
	contenders := make([]int32, len(outcomes))
	batch, err := engine.RunMany(p, g, opts, func(i int, res *engine.Result) error {
		out, err := p.Finish(res)
		if err != nil {
			return err
		}
		outcomes[i] = int8(min(len(out.Leaders), 2))
		contenders[i] = int32(out.Contenders)
		return nil
	})
	if err != nil {
		return nil, err
	}
	b := &BatchResult{BatchResult: *batch}
	for i := range outcomes {
		switch outcomes[i] {
		case 0:
			b.Zero++
		case 1:
			b.One++
		default:
			b.Multi++
		}
		b.Contenders += int(contenders[i])
	}
	if opts.CollectTrials {
		b.TrialOutcomes = outcomes
		b.TrialContenders = contenders
	}
	return b, nil
}
