package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wcle/internal/cluster"
	"wcle/internal/obs"
	"wcle/internal/serve"
)

// TestAnalyzeClusterTrace drives the full path the tool exists for: a real
// wire-level cluster run over TCP, its flight-recorder events written as
// NDJSON, read back, and rendered by every analysis mode.
func TestAnalyzeClusterTrace(t *testing.T) {
	lc, err := cluster.StartLocal(3)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	spec := cluster.JobSpec{
		Graph: serve.GraphSpec{Family: "rr", N: 48, D: 8, Seed: 1},
		Seed:  7,
	}
	if _, err := lc.Elect(spec); err != nil {
		t.Fatal(err)
	}

	evs := lc.TraceEvents()
	if len(evs) == 0 {
		t.Fatal("cluster run produced no trace events")
	}
	var wireSpans, jobSpans, kindInstants int
	for _, ev := range evs {
		switch {
		case ev.Cat == "cluster" && ev.Dur > 0:
			wireSpans++
		case ev.Cat == "job" && ev.Dur > 0:
			jobSpans++
		case ev.Cat == "kind":
			kindInstants++
		}
	}
	if wireSpans == 0 {
		t.Error("no cluster wire spans (wire-flush/drain) in the trace")
	}
	if jobSpans == 0 {
		t.Error("no job spans in the trace")
	}
	if kindInstants == 0 {
		t.Error("no per-kind message summaries in the trace")
	}

	path := filepath.Join(t.TempDir(), "cluster.ndjson")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteNDJSON(f, evs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	back, err := obs.ReadNDJSON(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(evs) {
		t.Fatalf("round trip lost events: wrote %d, read %d", len(evs), len(back))
	}

	// Every renderer must handle a real multi-shard trace without error.
	if err := waterfall(back, 8); err != nil {
		t.Errorf("waterfall: %v", err)
	}
	if err := critical(back); err != nil {
		t.Errorf("critical: %v", err)
	}
	if err := kinds(back); err != nil {
		t.Errorf("kinds: %v", err)
	}
	chrome := filepath.Join(t.TempDir(), "cluster.json")
	cf, err := os.Create(chrome)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteChromeTrace(cf, back); err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(chrome); err != nil || st.Size() == 0 {
		t.Fatalf("chrome export empty: %v", err)
	}
}

// TestKindsAddsFaultCounts checks the kinds mode's fault totals on a real
// faulty trace: a cluster election under drops and delays, whose per-round
// fault instants must add up to the run's dropped and delayed sends.
// Instants without a count (crashes, and traces that recorded one instant
// per faulty send) add one each.
func TestKindsAddsFaultCounts(t *testing.T) {
	sink := obs.NewRing(1 << 16)
	lc, err := cluster.StartLocalWith(3, cluster.LocalOptions{TraceSink: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	res, err := lc.Elect(cluster.JobSpec{
		Graph: serve.GraphSpec{Family: "rr", N: 48, D: 8, Seed: 1},
		Seed:  7,
		Fault: serve.FaultSpec{Drop: 0.05, DelayMax: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sink.Dropped() != 0 {
		t.Fatalf("trace sink overwrote %d events", sink.Dropped())
	}
	m := res.Outcome.Metrics
	if m.FaultDrops == 0 || m.Delayed == 0 {
		t.Fatalf("the fault plane did not act: %d drops, %d delays", m.FaultDrops, m.Delayed)
	}
	_, faults := tally(sink.Snapshot())
	want := map[string]int64{"drop": m.FaultDrops, "delay": m.Delayed}
	if !reflect.DeepEqual(faults, want) {
		t.Fatalf("fault totals %v, the run's %v", faults, want)
	}

	_, faults = tally([]obs.Ev{
		{Cat: "fault", Name: "drop", Round: 3, Args: map[string]int64{"node": 4, "from": 1}},
		{Cat: "fault", Name: "drop", Round: 3, Args: map[string]int64{"node": 5, "from": 1}},
		{Cat: "fault", Name: "crash", Round: 2, Args: map[string]int64{"node": 6, "from": -1}},
		{Cat: "fault", Name: "delay", Round: 4, Args: map[string]int64{"count": 9}},
	})
	want = map[string]int64{"drop": 2, "crash": 1, "delay": 9}
	if !reflect.DeepEqual(faults, want) {
		t.Fatalf("fault totals %v, want %v", faults, want)
	}
}
