package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"wcle/internal/algo"
	"wcle/internal/engine"
	"wcle/internal/obs"
	"wcle/internal/serve"
	"wcle/internal/sim"
)

// mergeParts hand-builds a 3-shard floodmax job over 6 nodes: node 4 holds
// the largest id, every node saw it, and only node 4 decided to lead.
func mergeParts() []partialResult {
	row := func(leader, id int64) []int64 { return []int64{leader, 90, id} }
	metrics := func(msgs int64) sim.Metrics {
		return sim.Metrics{Messages: msgs, Deliveries: msgs, FinalRound: 6, BusyRounds: 5, ByKind: map[string]int64{"floodmax": msgs}}
	}
	return []partialResult{
		{Shard: 0, Lo: 0, Outputs: [][]int64{row(0, 10), row(0, 20)}, NodeMessages: []int64{1, 2}, Metrics: metrics(3)},
		{Shard: 1, Lo: 2, Outputs: [][]int64{row(0, 30), row(0, 40)}, NodeMessages: []int64{3, 4}, Metrics: metrics(7)},
		{Shard: 2, Lo: 4, Outputs: [][]int64{row(1, 90), row(0, 50)}, NodeMessages: []int64{5, 6}, Metrics: metrics(11)},
	}
}

// TestMergeReassemblesRows: merge places every shard's rows at its own node
// range, whatever order the partials arrive in, and folds the matrix with
// the backend's Finish.
func TestMergeReassemblesRows(t *testing.T) {
	p, err := algo.New(algo.FloodMax, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	parts := mergeParts()
	reversed := []partialResult{parts[2], parts[1], parts[0]}
	res, err := merge(p, 6, 3, reversed)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]int64
	for _, pt := range parts {
		rows = append(rows, pt.Outputs...)
	}
	if !reflect.DeepEqual(res.Engine.Outputs, rows) {
		t.Fatalf("rows %v, want %v", res.Engine.Outputs, rows)
	}
	if fmt.Sprint(res.PerNodeMessages) != "[1 2 3 4 5 6]" {
		t.Fatalf("per-node sends %v", res.PerNodeMessages)
	}
	want, err := p.(algo.ElectionProtocol).Finish(res.Engine)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&res.Outcome, want) {
		t.Fatalf("outcome %+v, Finish of the merged matrix gives %+v", res.Outcome, want)
	}
	out := res.Outcome
	if fmt.Sprint(out.Leaders, out.LeaderIDs) != "[4] [90]" || !out.Explicit || out.Contenders != 6 ||
		out.Metrics.Messages != 21 || out.Metrics.ByKind["floodmax"] != 21 || out.Rounds != 6 || out.Metrics.BusyRounds != 5 {
		t.Fatalf("merged outcome %+v", out)
	}
}

// TestMergeRejectsMissingRow: a partial set that leaves a node unreported,
// reports a row of the wrong width, or places its rows outside the graph
// fails the job instead of folding a zero row into the Outcome.
func TestMergeRejectsMissingRow(t *testing.T) {
	p, err := algo.New(algo.FloodMax, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		mangle func(parts []partialResult)
		node   string
	}{
		{"short", func(parts []partialResult) { parts[1].Outputs = parts[1].Outputs[:1] }, "node 3"},
		{"narrow", func(parts []partialResult) { parts[2].Outputs[1] = parts[2].Outputs[1][:2] }, "node 5"},
		{"shifted", func(parts []partialResult) { parts[0].Lo = -1 }, "node 1"},
	} {
		parts := mergeParts()
		c.mangle(parts)
		if _, err := merge(p, 6, 3, parts); err == nil || !strings.Contains(err.Error(), c.node) {
			t.Errorf("%s: got %v, want an error naming %s", c.name, err, c.node)
		}
	}
}

// faultTally is a trace sink summing the per-send fault instants of every
// shard by kind. Each shard emits from its own goroutine.
type faultTally struct {
	mu     sync.Mutex
	counts map[string]int64
}

func (f *faultTally) Emit(ev obs.Ev) {
	if ev.Cat != "fault" {
		return
	}
	f.mu.Lock()
	f.counts[ev.Name] += ev.Args["count"]
	f.mu.Unlock()
}

// take returns the tallies so far and starts new ones.
func (f *faultTally) take() map[string]int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	counts := f.counts
	f.counts = map[string]int64{}
	return counts
}

// TestClusterFaultTalliesMatchMetrics holds the fault accounting identity
// over the cluster, whose shards each count their own sends: the fault
// instants all shards trace sum to the merged FaultDrops, Delayed and
// Mutated, and those equal the in-process run's. Crash planes are left
// out: a delivery to a dead node counts in FaultDrops without a per-send
// event (see sim's acceptDelivery).
func TestClusterFaultTalliesMatchMetrics(t *testing.T) {
	tally := &faultTally{counts: map[string]int64{}}
	local := startConformanceClusterWith(t, LocalOptions{TraceSink: tally})
	gs := serve.GraphSpec{Family: "rr", N: 64, D: 8, Seed: 3}
	planes := []serve.FaultSpec{{Byz: 0.15}, {Byz: 0.15, Drop: 0.05}, {Drop: 0.05, DelayMax: 2}}
	for _, name := range []string{algo.FloodMax, algo.KPPRT, algo.GilbertRS18} {
		for _, fault := range planes {
			spec := JobSpec{Graph: gs, Algorithm: name, Seed: 3, Fault: fault}
			want, _ := electInProcess(t, spec)
			tally.take()
			got, err := local.Run(spec)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, fault, err)
			}
			traced, m, wm := tally.take(), got.Outcome.Metrics, want.Metrics
			if m.FaultDrops+m.Delayed+m.Mutated == 0 {
				t.Errorf("%s %+v: the plane moved no fault counter", name, fault)
			}
			if traced["drop"] != m.FaultDrops || traced["delay"] != m.Delayed || traced["mutate"] != m.Mutated {
				t.Errorf("%s %+v: traced drop/delay/mutate %d/%d/%d, merged metrics %d/%d/%d", name, fault,
					traced["drop"], traced["delay"], traced["mutate"], m.FaultDrops, m.Delayed, m.Mutated)
			}
			if m.FaultDrops != wm.FaultDrops || m.Delayed != wm.Delayed || m.Mutated != wm.Mutated {
				t.Errorf("%s %+v: cluster drop/delay/mutate %d/%d/%d, in process %d/%d/%d", name, fault,
					m.FaultDrops, m.Delayed, m.Mutated, wm.FaultDrops, wm.Delayed, wm.Mutated)
			}
		}
	}
}
