package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wcle"
	"wcle/internal/obs"
	"wcle/internal/sim"
)

// maxPhase caps one measured loop, so that a run on a slow host still ends
// well inside the three minutes a run may take.
const maxPhase = 110 * time.Second

// opResult is one timed operation: a wcle.Run or Local.Run call, or one
// electd job from POST until the client sees it done.
type opResult struct {
	idx       int
	lat       time.Duration
	elections int   // elections the operation ran
	unique    int   // of which elected exactly one leader
	msgs      int64 // accepted sends over those elections
	rounds    int64 // simulated rounds over those elections
	err       error // a call error or a failed correctness check
}

// loopStats is one closed loop's operations plus the process cost of it.
type loopStats struct {
	ops     []opResult // sorted by index; indices [0, len(ops)) all ran
	elapsed time.Duration
	cpu     time.Duration
	alloc   uint64
}

// closedLoop runs op from `workers` goroutines, each starting its next
// operation only when its previous one has returned. Operation indices are
// handed out in order, so a fixed seed gives operation i the same input
// whatever the timing. The loop ends once `seconds` have passed and at
// least minOps operations have completed (or at maxPhase); operations in
// flight then finish and count.
func closedLoop(workers, minOps int, seconds time.Duration, op func(i int) opResult) loopStats {
	var next, done atomic.Int64
	per := make([][]opResult, workers)
	cpu0, alloc0 := cpuTime(), totalAlloc()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				el := time.Since(start)
				if el >= maxPhase || (el >= seconds && done.Load() >= int64(minOps)) {
					return
				}
				i := int(next.Add(1) - 1)
				r := op(i)
				r.idx = i
				per[w] = append(per[w], r)
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	st := loopStats{elapsed: time.Since(start), cpu: cpuTime() - cpu0, alloc: totalAlloc() - alloc0}
	for _, rs := range per {
		st.ops = append(st.ops, rs...)
	}
	sort.Slice(st.ops, func(i, j int) bool { return st.ops[i].idx < st.ops[j].idx })
	return st
}

// checkElection is the per-election correctness check: every accepted send
// is delivered or lost to the fault plane, and Success means exactly one
// leader.
func checkElection(out *wcle.AlgorithmOutcome) error {
	if out == nil {
		return fmt.Errorf("no election outcome")
	}
	m := out.Metrics
	if m.Messages != m.Deliveries+m.FaultDrops {
		return fmt.Errorf("messages %d != deliveries %d + fault drops %d", m.Messages, m.Deliveries, m.FaultDrops)
	}
	if out.Success != (len(out.Leaders) == 1) {
		return fmt.Errorf("success=%v with %d leaders", out.Success, len(out.Leaders))
	}
	return nil
}

// electionOp checks one election and summarises it as an operation.
func electionOp(out *wcle.AlgorithmOutcome, lat time.Duration) opResult {
	r := opResult{lat: lat, elections: 1, err: checkElection(out)}
	if out != nil {
		r.msgs = out.Metrics.Messages
		r.rounds = int64(out.Rounds)
		if len(out.Leaders) == 1 {
			r.unique = 1
		}
	}
	return r
}

// Seeds. Every input of a workload derives from its --seed: the graph
// generator's seed, and one stream each for timed operations, warm-up
// operations, and the set-ups' graphs.

func opSeed(seed int64, i int) int64 {
	return sim.DeriveSeed(sim.SeedForKey(seed, "ops"), uint64(i))
}

func warmupSeed(seed int64, i int) int64 {
	return sim.DeriveSeed(sim.SeedForKey(seed, "warmup"), uint64(i))
}

// rrSpec is a workload graph: a random 8-regular graph on n nodes.
func rrSpec(seed int64, n int) wcle.GraphSpec {
	return wcle.GraphSpec{Family: "rr", N: n, D: 8, Seed: sim.SeedForKey(seed, "graph")}
}

// setupSpec is the graph of timed set-up i: another random 8-regular graph
// on n nodes. The spectral profile's cost varies several-fold from graph to
// graph, so setup_s is a median over many graphs, not one graph's cost.
func setupSpec(seed int64, n, i int) wcle.GraphSpec {
	return wcle.GraphSpec{Family: "rr", N: n, D: 8, Seed: sim.DeriveSeed(sim.SeedForKey(seed, "setup"), uint64(i))}
}

// Process measurements.

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// gcState is a snapshot of the Go runtime's collector accounting.
type gcState struct {
	cycles       uint32
	gcCPU, total float64 // seconds
}

func readGC() gcState {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	st := gcState{cycles: ms.NumGC}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		st.gcCPU, st.total = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return st
}

// hostRefSink keeps the reference kernel's result live.
var hostRefSink uint64

// hostRefOnce times a fixed CPU and memory kernel: a xorshift fill of a
// 2 MiB table, then dependent reads across it. Nothing in the repository
// can change its time, so it shows host drift behind every timing.
func hostRefOnce() float64 {
	const n = 1 << 18
	buf := make([]uint64, n)
	start := time.Now()
	x := uint64(88172645463325252)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = x
	}
	var acc, j uint64
	for k := 0; k < 4*n; k++ {
		j = buf[j&(n-1)] + uint64(k)
		acc += j
	}
	hostRefSink = acc
	return msOf(time.Since(start))
}

// hostRef is the median of five kernel timings.
func hostRef() float64 {
	xs := make([]float64, 5)
	for i := range xs {
		xs[i] = hostRefOnce()
	}
	return median(xs)
}

// Statistics.

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// aggSink is the traced runs' in-memory sink: it folds every program
// event into a count and a summed duration per category/name.
type aggSink struct {
	mu sync.Mutex
	by map[spanKey]agg
}

// spanKey names one kind of program event.
type spanKey struct{ cat, name string }

// agg is one event kind's count and summed span duration.
type agg struct {
	n   int64
	dur time.Duration
}

func newAggSink() *aggSink { return &aggSink{by: map[spanKey]agg{}} }

// Emit implements obs.Sink.
func (s *aggSink) Emit(ev obs.Ev) {
	k := spanKey{ev.Cat, ev.Name}
	s.mu.Lock()
	a := s.by[k]
	a.n++
	a.dur += time.Duration(ev.Dur)
	s.by[k] = a
	s.mu.Unlock()
}

// take returns the events folded since the last take and resets.
func (s *aggSink) take() spanTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := spanTotals(s.by)
	s.by = map[spanKey]agg{}
	return out
}

// spanTotals maps an event kind to its folded events.
type spanTotals map[spanKey]agg

func (t spanTotals) events() int64 {
	var n int64
	for _, a := range t {
		n += a.n
	}
	return n
}

// ms is the summed duration of the cat/name spans.
func (t spanTotals) ms(cat, name string) float64 { return msOf(t[spanKey{cat, name}].dur) }
