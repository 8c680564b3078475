// Command electbench is the repository's end-to-end and per-layer
// benchmark. It drives the election stack only through the entry points a
// user has: wcle.Run, wcle.RunMany, wcle.Profile, GraphSpec.Build,
// cluster.StartLocal and Local.Run, serve.NewServer over HTTP, and the wire
// codec. Workloads (closed loops; inputs derive from --seed):
//
//   - sim-rr8: nproc goroutines run elections back to back through
//     wcle.Run on one random 8-regular graph with 64 nodes: the paper's
//     node machinery with walks of 2*tmix steps (gilbertrs18-fixed).
//     Its traced run also runs each seed on a two-shard loopback-TCP
//     cluster (cluster.StartLocal(2)), for the wire and cluster layers;
//   - electd-faulty: one HTTP client submits a job to electd and polls it
//     until done before submitting the next; each job runs floodmax under
//     {drop 0.05, delay_max 2} and kpprt under {delay_max 2}, two trials
//     each, on a random 8-regular graph with 512 nodes.
//
// With --trace 0 a run times the workload untraced and prints the
// end-to-end metrics; with --trace 1 it attaches an in-memory aggregating
// sink through the public trace hooks, alternates traced and untraced
// operations, prints the per-layer metrics, and writes its spans to
// --trace-dir. Every run checks the outputs it gets; a failed check counts
// as a failed operation and makes the command exit 1. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 130, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash electbench/run.sh --workload sim-rr8 --seed 1 --seconds 45 --trace 0
//	bash electbench/run.sh --workload all --seed 1 --seconds 10
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"wcle"
	"wcle/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	traceDir string
	// short is the benchmark's own test's mode: a handful of operations,
	// warm-ups and set-ups instead of the run sizes below.
	short bool
	// tamper, when non-nil, may corrupt election operation i's outcome
	// before it is checked; the benchmark's own test uses it.
	tamper func(i int, out *wcle.AlgorithmOutcome)
}

// Run sizes.
const (
	// minOps is how many operations a run times at least, so that at least
	// 10 samples lie beyond latency_ms_p90.
	minOps = 100
	// warmupOps is how many untimed operations precede a measured phase.
	warmupOps = 3
)

// ops is how many operations the run times at least; counts are taken over
// exactly these, so they repeat at a fixed seed.
func (c config) ops() int {
	if c.short {
		return 4
	}
	return minOps
}

// warmups is how many untimed operations precede the measured phase.
func (c config) warmups() int {
	if c.short {
		return 1
	}
	return warmupOps
}

// workloads maps each workload to its untraced and traced run.
var workloads = map[string]struct{ untraced, traced func(*bench) error }{
	"sim-rr8":       {simUntraced, simTraced},
	"electd-faulty": {electdUntraced, electdTraced},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("electbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds (it also runs at least 100 operations)")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory traced runs write their spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "electbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintln(stderr, "electbench: --seconds must not be negative")
		return 2
	}
	if *workload == "all" {
		return runAll(args, stdout, stderr)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	return runConfig(config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		traceDir: *traceDir,
	}, stdout, stderr)
}

// runConfig runs one workload, untraced or traced, and returns the exit
// code. run and the benchmark's own test both go through it.
func runConfig(cfg config, stdout, stderr io.Writer) int {
	w, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "electbench: unknown workload %q (want %s, or all)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	b := &bench{cfg: cfg, out: stdout, errOut: stderr, metrics: map[string]metric{}}
	fn := w.untraced
	if cfg.traced {
		fn = w.traced
	}
	return b.finish(fn(b))
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state: its settings, the metrics it has set, the
// operations it attempted and failed, and (traced runs) its own spans.
type bench struct {
	cfg       config
	out       io.Writer
	errOut    io.Writer
	metrics   map[string]metric
	attempted int
	failed    int
	spans     []obs.Ev
	setupSecs []float64 // timed set-ups, for setup_s
}

// set records a metric under its catalogued unit.
func (b *bench) set(name string, v float64) {
	unit, ok := endToEndUnits[name]
	if !ok {
		unit = perLayerUnits[name]
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// logf prints one human-readable line before the result line.
func (b *bench) logf(format string, args ...interface{}) {
	fmt.Fprintf(b.out, format+"\n", args...)
}

// count records an attempted operation and whether it failed.
func (b *bench) count(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if b.failed <= 10 {
			fmt.Fprintf(b.errOut, "electbench: %s: failed operation: %v\n", b.cfg.workload, err)
		}
	}
}

// countOps records every operation of a loop.
func (b *bench) countOps(ops []opResult) {
	for _, r := range ops {
		b.count(r.err)
	}
}

// span records one of the benchmark's own spans (traced runs only) around
// a public call, and returns the call's duration.
func (b *bench) span(name string, start time.Time, args map[string]int64) time.Duration {
	d := time.Since(start)
	if b.cfg.traced {
		b.spans = append(b.spans, obs.Ev{TS: start.UnixNano(), Dur: int64(d), Cat: "bench", Name: name, Round: -1, Args: args})
	}
	return d
}

// timeSetups times n set-ups (2 in short mode) and keeps their durations.
// Untraced runs call it before and after their measured phase, so that
// setup_s, the median of all of them, spans the host's state over the whole
// run. Set-up i builds graph i of the seed's set-up stream (see setupSpec),
// so every run at a seed takes its median over the same graphs. Each set-up
// returns a teardown, which runs untimed.
func (b *bench) timeSetups(n int, setup func(i int) (func(), error)) error {
	if b.cfg.short {
		n = 2
	}
	for k := 0; k < n; k++ {
		start := time.Now()
		teardown, err := setup(len(b.setupSecs))
		d := b.span("setup", start, nil)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		teardown()
		b.setupSecs = append(b.setupSecs, d.Seconds())
	}
	return nil
}

// hostRefAfter prints the host reference kernel's time from before the
// measured phase and from now; traced runs report their mean as host.ref_ms.
func (b *bench) hostRefAfter(before float64) {
	after := hostRef()
	b.logf("host.ref_ms: before %.3f, after %.3f", before, after)
	if b.cfg.traced {
		b.set("host.ref_ms", (before+after)/2)
	}
}

// endToEnd sets the end-to-end metrics from an untraced closed loop and
// the timed set-ups. Counts (messages, rounds, unique leaders) are taken
// over the first cfg.ops() operations, so they repeat exactly at a fixed seed.
func (b *bench) endToEnd(st loopStats) {
	b.countOps(st.ops)
	var lat []float64
	var elections int
	for _, r := range st.ops {
		lat = append(lat, msOf(r.lat))
		elections += r.elections
	}
	fixed := st.ops[:min(len(st.ops), b.cfg.ops())]
	var fe, unique int
	var msgs, rounds int64
	for _, r := range fixed {
		fe += r.elections
		unique += r.unique
		msgs += r.msgs
		rounds += r.rounds
	}
	b.set("elections_per_s", ratio(float64(elections), st.elapsed.Seconds()))
	b.set("latency_ms_p50", quantile(lat, 0.5))
	b.set("latency_ms_p90", quantile(lat, 0.9))
	b.set("cpu_ms_per_election", ratio(msOf(st.cpu), float64(elections)))
	b.set("unique_leader_frac", ratio(float64(unique), float64(fe)))
	b.set("msgs_per_election", ratio(float64(msgs), float64(fe)))
	b.set("rounds_per_election", ratio(float64(rounds), float64(fe)))
	b.set("alloc_mb_per_election", ratio(float64(st.alloc)/(1<<20), float64(elections)))
	b.logf("timed phase: %d operations (%d elections) in %.2f s; latency over %d samples; counts over the first %d operations",
		len(st.ops), elections, st.elapsed.Seconds(), len(lat), len(fixed))
	xs := b.setupSecs
	b.set("setup_s", median(xs))
	b.logf("setup_s: median of %d set-ups, %.4f s (min %.4f, max %.4f)", len(xs), median(xs), quantile(xs, 0), quantile(xs, 1))
}

// graphLayers sets graph.build_ms and spectral.profile_ms: medians of
// repeated GraphSpec.Build and wcle.Profile calls on the workload's graph.
// It returns the graph with the walk length sim-rr8 takes from its profile.
func (b *bench) graphLayers(spec wcle.GraphSpec, reps int) (profiledGraph, error) {
	var build, prof []float64
	var pg profiledGraph
	for i := 0; i < reps; i++ {
		start := time.Now()
		g, err := spec.Build()
		build = append(build, msOf(b.span("GraphSpec.Build", start, nil)))
		if err != nil {
			return profiledGraph{}, err
		}
		start = time.Now()
		p, err := wcle.Profile(g, wcle.SpectralOptions{})
		prof = append(prof, msOf(b.span("wcle.Profile", start, nil)))
		if err != nil {
			return profiledGraph{}, err
		}
		pg = profiledGraph{spec: spec, g: g, walkLen: 2 * p.Tmix}
	}
	b.set("graph.build_ms", median(build))
	b.set("spectral.profile_ms", median(prof))
	return pg, nil
}

// stopLoop reports whether a traced run's alternating loop is done: at
// least `seconds` passed and minIters iterations ran, or maxPhase passed.
func stopLoop(start time.Time, seconds time.Duration, iters, minIters int) bool {
	el := time.Since(start)
	return el >= maxPhase || (el >= seconds && iters >= minIters)
}

// tracedIters is the least number of iterations of a traced run's loop;
// per-layer counts are taken over exactly these, so they repeat at a seed.
func (b *bench) tracedIters() int { return max(1, b.cfg.ops()/5) }

// runtimeMetrics sets the runtime.* per-layer metrics over a loop.
func (b *bench) runtimeMetrics(before gcState, elections int) {
	after := readGC()
	b.set("runtime.gc_cycles_per_election", ratio(float64(after.cycles-before.cycles), float64(elections)))
	b.set("runtime.gc_cpu_frac", ratio(after.gcCPU-before.gcCPU, after.total-before.total))
}

// zeroLayers sets the per-layer metrics of layers a workload never calls
// into: a count of zero work, so every workload prints every name.
func (b *bench) zeroLayers(names ...string) {
	for _, n := range names {
		b.set(n, 0)
	}
}

// finish prints the metrics and the result line, writes a traced run's
// spans, and returns the exit code.
func (b *bench) finish(err error) int {
	if err != nil {
		fmt.Fprintf(b.errOut, "electbench: %s: %v\n", b.cfg.workload, err)
		return 1
	}
	want := endToEndUnits
	if b.cfg.traced {
		want = perLayerUnits
	}
	for name := range want {
		if _, ok := b.metrics[name]; !ok {
			fmt.Fprintf(b.errOut, "electbench: %s: metric %s missing\n", b.cfg.workload, name)
			return 1
		}
	}
	for name, m := range b.metrics {
		if _, ok := want[name]; !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(b.errOut, "electbench: %s: metric %s is unexpected or not finite\n", b.cfg.workload, name)
			return 1
		}
	}
	if b.cfg.traced {
		if err := b.writeSpans(); err != nil {
			fmt.Fprintf(b.errOut, "electbench: %s: writing spans: %v\n", b.cfg.workload, err)
			return 1
		}
	}
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.logf("%-34s %14.6g %s", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	rep := report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(b.errOut, "electbench: %s: %v\n", b.cfg.workload, err)
		return 1
	}
	fmt.Fprintln(b.out, string(line))
	if !rep.Correct || rep.Attempted == 0 {
		return 1
	}
	return 0
}

// writeSpans writes the traced run's own spans as NDJSON (readable by
// cmd/electtrace) to <trace-dir>/<workload>-seed<seed>.ndjson.
func (b *bench) writeSpans() error {
	if err := os.MkdirAll(b.cfg.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.cfg.traceDir, fmt.Sprintf("%s-seed%d.ndjson", b.cfg.workload, b.cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := obs.WriteNDJSON(w, b.spans); err != nil {
		_ = f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload untraced and traced, each in a process of its
// own (so heap, GC state and peak RSS never carry over), and passes their
// output through. It exits 1 if any run failed.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "electbench:", err)
		return 1
	}
	var rest []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "--workload" || a == "-workload" || a == "--trace" || a == "-trace":
			i++
		case strings.HasPrefix(a, "--workload=") || strings.HasPrefix(a, "-workload=") ||
			strings.HasPrefix(a, "--trace=") || strings.HasPrefix(a, "-trace="):
		default:
			rest = append(rest, a)
		}
	}
	code := 0
	for _, w := range workloadNames() {
		for _, tr := range []string{"0", "1"} {
			fmt.Fprintf(stdout, "== %s --trace %s\n", w, tr)
			cmd := exec.Command(exe, append([]string{"--workload", w, "--trace", tr}, rest...)...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				var ee *exec.ExitError
				if !errors.As(err, &ee) {
					fmt.Fprintln(stderr, "electbench:", err)
				}
				code = 1
			}
		}
	}
	return code
}
