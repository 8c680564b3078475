package engine_test

import (
	"errors"
	"reflect"
	"testing"

	"wcle/internal/engine"
	"wcle/internal/graph"
)

// TestRunManyFoldsEachTrialOnce runs a bfstree batch on two shards: the
// fold sees every trial index exactly once, with that trial's own result,
// and a fold error aborts the batch.
func TestRunManyFoldsEachTrialOnce(t *testing.T) {
	g, err := graph.Clique(12, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := engine.New(engine.BFSTree, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const trials = 9
	opts := engine.BatchOptions{Base: engine.Options{Seed: 3}, Trials: trials, Workers: 2, CollectTrials: true}
	calls := make([]int, trials)
	msgs := make([]int64, trials)
	batch, err := engine.RunMany(p, g, opts, func(i int, inst engine.Instance, res *engine.Result) error {
		calls[i]++
		msgs[i] = res.Metrics.Messages
		if inst == nil || res.Protocol != engine.BFSTree {
			return errors.New("fold got no instance or a foreign result")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range calls {
		if c != 1 {
			t.Fatalf("trial %d folded %d times", i, c)
		}
	}
	if !reflect.DeepEqual(msgs, batch.TrialMessages) {
		t.Fatalf("fold saw messages %v, the batch collected %v", msgs, batch.TrialMessages)
	}
	stop := errors.New("stop")
	if _, err := engine.RunMany(p, g, opts, func(int, engine.Instance, *engine.Result) error { return stop }); !errors.Is(err, stop) {
		t.Fatalf("fold error not returned: %v", err)
	}
}
