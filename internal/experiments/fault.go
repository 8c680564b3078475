package experiments

import (
	"fmt"
	"sync"
	"time"

	"wcle/internal/algo"
	"wcle/internal/core"
	"wcle/internal/engine"
	"wcle/internal/sim"
)

// This file holds the delivery-plane experiments: E15 probes the
// algorithm's resilience when the clean synchronous model of Theorem 13 is
// violated (lossy, delayed, or crash-prone delivery — the regimes of
// Kutten et al.'s sublinear-election line of work), and E16 benchmarks the
// sharded MultiRunner bulk-election path against the engine's
// goroutine-per-node concurrency.

// e15Faults enumerates the fault scenarios, in render order. Each builds a
// fresh fault plane per trial (planes are stateful per run). Crashes
// happen at round 1: the crashed fraction is dead from the start, so the
// survivors must elect among themselves.
var e15Faults = []struct {
	name   string
	resend int
	mk     func() sim.FaultPlane
}{
	{"perfect", 0, func() sim.FaultPlane { return nil }},
	{"drop-1%", 0, func() sim.FaultPlane { return &sim.Drop{P: 0.01} }},
	{"drop-5%", 0, func() sim.FaultPlane { return &sim.Drop{P: 0.05} }},
	{"drop-10%", 0, func() sim.FaultPlane { return &sim.Drop{P: 0.10} }},
	{"drop-10%+resend2", 2, func() sim.FaultPlane { return &sim.Drop{P: 0.10} }},
	{"delay-3", 0, func() sim.FaultPlane { return &sim.Delay{Max: 3} }},
	{"crash-10%", 0, func() sim.FaultPlane { return &sim.CrashSample{Frac: 0.10, Round: 1} }},
	{"crash-25%", 0, func() sim.FaultPlane { return &sim.CrashSample{Frac: 0.25, Round: 1} }},
}

// e15N returns the network size of the resilience sweep for a regime.
func e15N(cfg SuiteConfig) int {
	if cfg.Quick {
		return 64
	}
	return 96
}

// e15Elections is the per-trial batch size (one harness unit runs a whole
// MultiRunner batch; see the tentpole wiring note in DESIGN.md 3.1).
func e15Elections(cfg SuiteConfig) int {
	if cfg.Quick {
		return 6
	}
	return 10
}

// e15Spec sweeps leader uniqueness and cost against drop rate, delivery
// delay, and crash fraction on the rr8 expander.
func e15Spec() Spec {
	return Spec{
		ID:    "E15",
		Name:  "fault-resilience",
		Title: "Fault resilience: leader uniqueness vs drop rate, delay, and crash fraction (rr8)",
		Claim: "Robustness beyond Theorem 13's clean synchronous model (cf. Kutten et al.)",
		Preamble: "Theorem 13 assumes perfect synchronous delivery; this sweep injects seed-deterministic drops, delays, and crashes to measure what actually degrades. " +
			"Expected shape: safety holds everywhere (multi stays 0 — losing control floods suppresses elections rather than doubling them) while liveness decays with the drop rate; delays should be nearly free because the staged schedule absorbs reordering.",
		FullTrials:  2,
		QuickTrials: 1,
		Points: func(cfg SuiteConfig) []Point {
			if cfg.MaxN > 0 && cfg.MaxN < e15N(cfg) {
				return nil
			}
			var out []Point
			for _, f := range e15Faults {
				out = append(out, Point{Key: f.name, Label: f.name, Family: "rr8", N: e15N(cfg)})
			}
			return out
		},
		Trial: func(cfg SuiteConfig, pt Point, setup interface{}, seed int64) (Metrics, error) {
			g, err := buildFamily("rr8", pt.N, sim.DeriveSeed(seed, 0xA))
			if err != nil {
				return nil, err
			}
			var fault func() sim.FaultPlane
			resend := 0
			found := false
			for _, f := range e15Faults {
				if f.name == pt.Label {
					fault, resend, found = f.mk, f.resend, true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("experiments: unknown fault scenario %q", pt.Label)
			}
			c := core.DefaultConfig()
			c.Resend = resend
			a, err := algo.New(algo.GilbertRS18, algo.Config{Core: c})
			if err != nil {
				return nil, err
			}
			batch, err := algo.RunMany(g, a, engine.BatchOptions{
				Base:     engine.Options{Seed: sim.DeriveSeed(seed, 0xB), LeanMetrics: true},
				Trials:   e15Elections(cfg),
				NewFault: func(int) sim.FaultPlane { return fault() },
			})
			if err != nil {
				return nil, err
			}
			k := float64(batch.Trials)
			return Metrics{
				"elections":   k,
				"one":         float64(batch.One),
				"zero":        float64(batch.Zero),
				"multi":       float64(batch.Multi),
				"msgs":        float64(batch.Messages) / k,
				"fault_drops": float64(batch.FaultDrops) / k,
				"delayed":     float64(batch.Delayed) / k,
			}, nil
		},
		Render: renderE15,
	}
}

func renderE15(cfg SuiteConfig, data []PointData) (*Table, error) {
	t := &Table{
		ID:      "E15",
		Title:   fmt.Sprintf("Fault resilience: leader uniqueness vs drop rate, delay, and crash fraction (rr8, n=%d)", e15N(cfg)),
		Columns: []string{"fault", "elections", "one leader", "zero", "multi", "mean msgs", "mean lost/delayed sends"},
	}
	for _, pd := range data {
		t.AddRow(pd.Point.Label,
			d(pd.Count("elections")), d(pd.Count("one")), d(pd.Count("zero")), d(pd.Count("multi")),
			f1(pd.Mean("msgs")),
			f1(pd.Mean("fault_drops"))+" / "+f1(pd.Mean("delayed")))
	}
	t.AddNote("The paper's guarantees assume perfect synchronous delivery; this sweep measures degradation outside that model. In every scenario we measured, safety held (multi = 0): losing or delaying winner/FINAL floods suppresses elections rather than doubling them (not a theorem — a second leader needs a stopped contender that missed both the max id and the winner flood — but the measured rate is zero). Liveness is what degrades: drops lose walk tokens and X1 deltas, which are additive state, so the distinctness/intersection thresholds go unmet and the zero-leader rate climbs with the drop rate.")
	t.AddNote("resend2 retransmits each idempotent control message twice (core.Config.Resend). It protects the control plane (id floods, FINAL, winner) but cannot restore the additive plane — duplicating a token batch or an X1 delta would corrupt counts, so they go out once — and the liveness loss at heavy drop rates persists at ~3x the message cost: the honest conclusion is that drop-resilience needs acknowledgments, not blind redundancy. Delay keeps every message (reordering only); the staged schedule absorbs almost all of it, with the rare failure being a walk token arriving after its phase's decision round (a stale drop). Crashes happen at round 1; the survivors keep n set to the original size, so thresholds are conservatively high (a crash-robust n-estimate is the open problem the paper leaves).")
	return t, nil
}

// e16Sizes returns the throughput grid for a regime.
func e16Sizes(cfg SuiteConfig) []int {
	sizes := []int{32, 64, 128}
	if cfg.Quick {
		sizes = []int{32, 64}
	}
	return cfg.capSizes(sizes)
}

// e16Elections is the per-point batch size.
const e16Elections = 12

// e16Spec measures bulk-election throughput: the sharded MultiRunner
// (sequential engine per election, one goroutine per shard) against the
// engine's goroutine-per-awake-node mode with all elections in flight —
// the only concurrent bulk path that existed before the MultiRunner.
//
// E16 reports wall-clock throughput, so its metrics are the one deliberate
// exception to the suite's byte-identical determinism contract (DESIGN.md
// 3.3): reruns reproduce the speedup, not the exact numbers.
func e16Spec() Spec {
	return Spec{
		ID:    "E16",
		Name:  "throughput",
		Title: "Bulk-election throughput: sharded MultiRunner vs goroutine-per-node concurrency (rr8)",
		Claim: "Engine scalability (ROADMAP hardware-speed goal); no paper claim",
		Preamble: "An engine benchmark, not a paper claim: bulk independent elections sharded across a worker pool (one sequential engine per shard) versus the goroutine-per-awake-node mode with every election in flight. " +
			"Expected shape: the sharded path wins by avoiding per-round spawn-and-barrier overhead; the measured speedup is hardware-dependent (wall-clock — the suite's one exception to byte-identical determinism).",
		FullTrials:  2,
		QuickTrials: 1,
		Points: func(cfg SuiteConfig) []Point {
			var out []Point
			for _, n := range e16Sizes(cfg) {
				out = append(out, Point{Key: fmt.Sprintf("rr8-%d", n), Family: "rr8", N: n})
			}
			return out
		},
		Trial: func(cfg SuiteConfig, pt Point, setup interface{}, seed int64) (Metrics, error) {
			g, err := buildFamily("rr8", pt.N, sim.DeriveSeed(seed, 0xA))
			if err != nil {
				return nil, err
			}
			c := core.DefaultConfig()
			master := sim.DeriveSeed(seed, 0xB)

			// Sharded: MultiRunner, sequential engine per election.
			a, err := algo.New(algo.GilbertRS18, algo.Config{Core: c})
			if err != nil {
				return nil, err
			}
			batch, err := algo.RunMany(g, a, engine.BatchOptions{
				Base:   engine.Options{Seed: master, LeanMetrics: true},
				Trials: e16Elections,
			})
			if err != nil {
				return nil, err
			}

			// Per-node-goroutine mode: the same elections, every one on the
			// concurrent engine, all in flight at once.
			var (
				wg       sync.WaitGroup
				mu       sync.Mutex
				firstErr error
				one      int
			)
			start := time.Now()
			for i := 0; i < e16Elections; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					res, err := core.Run(g, c, engine.Options{
						Seed:        sim.DeriveSeed(master, uint64(i)),
						Concurrent:  true,
						LeanMetrics: true,
					})
					mu.Lock()
					defer mu.Unlock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					if err == nil && len(res.Leaders) == 1 {
						one++
					}
				}(i)
			}
			wg.Wait()
			perNode := time.Since(start)
			if firstErr != nil {
				return nil, firstErr
			}
			if one != batch.One {
				return nil, fmt.Errorf("experiments: engine modes disagree: %d vs %d unique-leader runs", batch.One, one)
			}
			perNodeEPS := float64(e16Elections) / perNode.Seconds()
			return Metrics{
				"elections":   e16Elections,
				"eps_sharded": batch.RunsPerSec,
				"eps_pernode": perNodeEPS,
				"speedup":     batch.RunsPerSec / perNodeEPS,
				"msgs":        float64(batch.Messages) / e16Elections,
			}, nil
		},
		Render: renderE16,
	}
}

func renderE16(cfg SuiteConfig, data []PointData) (*Table, error) {
	t := &Table{
		ID:      "E16",
		Title:   "Bulk-election throughput: sharded MultiRunner vs goroutine-per-node concurrency (rr8)",
		Columns: []string{"n", "elections/point", "sharded elect/s", "per-node-goroutine elect/s", "speedup", "mean msgs"},
	}
	for _, pd := range data {
		t.AddRow(d(pd.Point.N), d(int(pd.First("elections"))),
			f2(pd.Median("eps_sharded")), f2(pd.Median("eps_pernode")),
			f2(pd.Median("speedup"))+"x", f1(pd.Mean("msgs")))
	}
	t.AddNote("Both modes run identical elections (the trial cross-checks their unique-leader counts). The per-node-goroutine mode spawns one goroutine per awake node per busy round — pure scheduling overhead for independent bulk trials; the MultiRunner runs one sequential-engine election per shard slot instead. Wall-clock metrics are the suite's one exception to the byte-identical determinism contract (DESIGN.md 3.3).")
	return t, nil
}
