package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wcle"
	"wcle/internal/serve"
	"wcle/internal/sim"
)

// benchmarkFile is the part of ../BENCHMARK.json the test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// lastReport parses the result line a run printed last.
func lastReport(t *testing.T, stdout string) report {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, stdout)
	}
	return rep
}

// shortConfig is a short-mode run of a workload: a handful of operations,
// warm-ups and set-ups, and no minimum time.
func shortConfig(t *testing.T, workload string, traced bool) config {
	return config{workload: workload, seed: 3, traced: traced, traceDir: t.TempDir(), short: true}
}

// TestShortRunsPrintEveryMetric runs every workload of BENCHMARK.json
// untraced and traced in short mode, and checks that each prints exactly its
// metric list, every name with its unit, and passes its correctness checks.
func TestShortRunsPrintEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, electbench runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w.Name, traced), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				cfg := shortConfig(t, w.Name, traced)
				if code := runConfig(cfg, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
				}
				rep := lastReport(t, stdout.String())
				want, least := bf.EndToEnd, cfg.ops() // an untraced run times cfg.ops() operations at least
				if traced {
					want, least = bf.PerLayer, 1
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < least {
					t.Fatalf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(rep.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := rep.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: printed %v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
				}
			})
		}
	}
}

// TestMismatchedOutcomeFails corrupts one election's accounting and
// expects that operation, and only it, to count as failed, with exit 1.
func TestMismatchedOutcomeFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	cfg := shortConfig(t, "sim-rr8", false)
	cfg.tamper = func(i int, out *wcle.AlgorithmOutcome) {
		if i == 1 {
			out.Metrics.Messages++
		}
	}
	if code := runConfig(cfg, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, stderr.String())
	}
	rep := lastReport(t, stdout.String())
	if rep.Correct || rep.Failed != 1 {
		t.Fatalf("correct=%v failed=%d, want false and 1", rep.Correct, rep.Failed)
	}
}

// TestChecksRejectMismatches feeds each correctness check an outcome that
// breaks it.
func TestChecksRejectMismatches(t *testing.T) {
	out := &wcle.AlgorithmOutcome{Leaders: []int{3}, Success: true}
	out.Metrics.Messages, out.Metrics.Deliveries, out.Metrics.FaultDrops = 10, 8, 2
	if err := checkElection(out); err != nil {
		t.Fatalf("consistent outcome rejected: %v", err)
	}
	out.Success = false
	if checkElection(out) == nil {
		t.Error("success with one leader reported false, not rejected")
	}
	out.Success = true
	out.Metrics.Deliveries = 7
	if checkElection(out) == nil {
		t.Error("lost send not rejected")
	}

	req := jobRequest(5)
	res := serve.JobResult{Seed: req.Seed}
	for k, p := range req.Points {
		res.Points = append(res.Points, serve.PointResult{Algorithm: p.Algorithm, Trials: p.Trials, Seed: pointSeed(req, k),
			One: p.Trials, UniqueLeader: true, Messages: 100, Rounds: 10, Spectral: &wcle.SpectralProfile{}})
	}
	if err := checkJob(req, res); err != nil {
		t.Fatalf("consistent job rejected: %v", err)
	}
	res.Points[1].Seed++
	if checkJob(req, res) == nil {
		t.Error("point at a seed electd does not derive not rejected")
	}
	res.Points[1].Seed--
	res.Points[0].Zero = 1
	if checkJob(req, res) == nil {
		t.Error("tallies over more elections than trials not rejected")
	}

	batch := &wcle.ProtocolBatchResult{Messages: 100, Rounds: 10, FaultDrops: 4}
	batch.Shards = append(batch.Shards, sim.ShardStats{Deliveries: 96})
	p := serve.PointResult{Algorithm: "floodmax", Messages: 100, Rounds: 10, FaultDrops: 4}
	if err := checkBatch(batch, p); err != nil {
		t.Fatalf("consistent batch rejected: %v", err)
	}
	p.Rounds++
	if checkBatch(batch, p) == nil {
		t.Error("batch with other rounds than the job not rejected")
	}
}
