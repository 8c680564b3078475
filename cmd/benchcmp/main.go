// Command benchcmp is the CI benchmark-regression gate: it parses
// `go test -bench` output and compares every benchmark against the
// committed baseline (BENCH_seed.json), failing when a hot path regresses
// beyond tolerance — ns/op by a generous relative margin (wall time is
// noisy across machines), allocs/op and B/op by a tight one (allocation
// counts and bytes are nearly deterministic for a fixed toolchain;
// single-iteration runs jitter by a handful of allocs, so the default
// tolerance is 1%, not 0). Repeated lines of one benchmark (go test -count
// N) fold into their median, field by field, both when comparing and when
// writing a baseline.
//
// Compare (the CI path):
//
//	go test -run '^$' -bench . -benchmem -count 5 -benchtime 1x . | tee bench.txt
//	go run ./cmd/benchcmp -baseline BENCH_seed.json -bench bench.txt -ns-tol 1.5
//
// Re-baseline (after an intentional perf change, on a quiet machine):
//
//	go test -run '^$' -bench . -benchmem -count 5 -benchtime 1x . > bench.txt
//	go run ./cmd/benchcmp -bench bench.txt -write BENCH_seed.json \
//	    -revision "$(git rev-parse --short HEAD)"
//
// and commit the rewritten BENCH_seed.json with the change that motivated
// it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
}

// Entry is one benchmark's measurements.
type Entry struct {
	Name        string
	Iterations  int64
	NsPerOp     float64
	BPerOp      float64 // -1 when the run lacked -benchmem
	AllocsPerOp float64 // -1 when the run lacked -benchmem
	Custom      map[string]float64
}

// Run is a parsed `go test -bench` output.
type Run struct {
	Goos, Goarch, CPU string
	Entries           []Entry
}

// Baseline mirrors the committed BENCH_seed.json schema.
type Baseline struct {
	Description string
	Revision    string
	Entries     []Entry
}

func run() error {
	var (
		baselinePath = flag.String("baseline", "BENCH_seed.json", "committed baseline JSON")
		benchPath    = flag.String("bench", "-", "go test -bench output to check (\"-\" = stdin)")
		nsTol        = flag.Float64("ns-tol", 0.25, "relative ns/op regression tolerance (0.25 = +25%)")
		allocsTol    = flag.Float64("allocs-tol", 0.01, "relative allocs/op and B/op regression tolerance (default 1%: benchtime=1x runs jitter by a handful of allocs and at most about 1% in bytes; real hot-path regressions are orders of magnitude larger)")
		tolerance    = flag.Float64("tolerance", 0.01, "alias for -allocs-tol, the gate's tight margin; takes precedence when set explicitly")
		allowMissing = flag.Bool("allow-missing", false, "tolerate baseline benchmarks absent from the run (partial -bench filters)")
		writePath    = flag.String("write", "", "re-baseline: write this JSON from the run instead of comparing")
		revision     = flag.String("revision", "unknown", "revision stamp for -write")
		benchtime    = flag.String("benchtime", "1x", "benchtime stamp for -write")
		seedSuite    = flag.Int64("seed", 42, "suite seed stamp for -write")
	)
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "tolerance" {
			*allocsTol = *tolerance
		}
	})

	in := os.Stdin
	if *benchPath != "-" {
		f, err := os.Open(*benchPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	run, err := parseBenchOutput(in)
	if err != nil {
		return err
	}
	if len(run.Entries) == 0 {
		return fmt.Errorf("no benchmark lines in %s (did the bench run fail?)", *benchPath)
	}

	if *writePath != "" {
		b := renderBaseline(run, *revision, *benchtime, *seedSuite)
		if err := os.WriteFile(*writePath, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("benchcmp: wrote %d benchmarks to %s\n", len(run.Entries), *writePath)
		return nil
	}

	base, err := loadBaseline(*baselinePath)
	if err != nil {
		return err
	}
	report, regressions, worst := compare(base, run, *nsTol, *allocsTol, *allowMissing)
	fmt.Print(report)
	if regressions > 0 {
		// Name the measured margin, not just the verdict: a gate tripped
		// by +1.2% against a 1% tolerance reads very differently from one
		// tripped by +300% — or by a benchmark that never ran at all.
		msg := fmt.Sprintf("%d regression(s) against %s — worst ns/op %+.1f%% (tolerance +%.0f%%), worst allocs/op %+.1f%% and B/op %+.1f%% (tolerance +%.1f%%)",
			regressions, *baselinePath, worst.ns*100, *nsTol*100, worst.allocs*100, worst.bytes*100, *allocsTol*100)
		if worst.missing > 0 {
			msg += fmt.Sprintf(", %d baseline benchmark(s) missing from the run", worst.missing)
		}
		return fmt.Errorf("%s; re-baseline with -write if intentional, see README", msg)
	}
	fmt.Printf("benchcmp: ok — %d benchmarks within tolerance (ns/op +%.0f%%, allocs/op and B/op +%.0f%%)\n",
		len(base.Entries), *nsTol*100, *allocsTol*100)
	return nil
}

// benchLine matches "BenchmarkName[-P] <iters> <measurements...>".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// parseBenchOutput reads the text format of `go test -bench`. Measurement
// fields come in "<value> <unit>" pairs; ns/op, B/op, and allocs/op are
// structural, anything else is a custom b.ReportMetric unit. Repeated
// lines of one benchmark fold into one entry (foldMedians).
func parseBenchOutput(r io.Reader) (*Run, error) {
	out := &Run{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			out.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			out.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			out.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad iteration count in %q: %w", line, err)
		}
		e := Entry{Name: m[1], Iterations: iters, BPerOp: -1, AllocsPerOp: -1,
			NsPerOp: -1, Custom: map[string]float64{}}
		fields := strings.Fields(m[3])
		if len(fields)%2 != 0 {
			return nil, fmt.Errorf("odd measurement fields in %q", line)
		}
		for i := 0; i < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad measurement %q in %q: %w", fields[i], line, err)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				e.NsPerOp = val
			case "B/op":
				e.BPerOp = val
			case "allocs/op":
				e.AllocsPerOp = val
			case "MB/s":
				// throughput is derivable; skip
			default:
				e.Custom[unit] = val
			}
		}
		if e.NsPerOp < 0 {
			return nil, fmt.Errorf("benchmark line without ns/op: %q", line)
		}
		out.Entries = append(out.Entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out.Entries = foldMedians(out.Entries)
	return out, nil
}

// foldMedians merges the entries of each benchmark name into one, in order
// of first appearance: every field is the median of the lines that carry
// it, so one slow repeat on a noisy host moves nothing.
func foldMedians(entries []Entry) []Entry {
	var order []string
	byName := map[string][]Entry{}
	for _, e := range entries {
		if _, ok := byName[e.Name]; !ok {
			order = append(order, e.Name)
		}
		byName[e.Name] = append(byName[e.Name], e)
	}
	out := make([]Entry, 0, len(order))
	for _, name := range order {
		reps := byName[name]
		field := func(get func(Entry) float64) float64 {
			var vals []float64
			for _, e := range reps {
				vals = append(vals, get(e))
			}
			return median(vals)
		}
		e := Entry{Name: name, Custom: map[string]float64{},
			Iterations:  int64(field(func(e Entry) float64 { return float64(e.Iterations) })),
			NsPerOp:     field(func(e Entry) float64 { return e.NsPerOp }),
			BPerOp:      field(func(e Entry) float64 { return e.BPerOp }),
			AllocsPerOp: field(func(e Entry) float64 { return e.AllocsPerOp }),
		}
		units := map[string][]float64{}
		for _, r := range reps {
			for unit, v := range r.Custom {
				units[unit] = append(units[unit], v)
			}
		}
		for unit, vals := range units {
			e.Custom[unit] = median(vals)
		}
		out = append(out, e)
	}
	return out
}

// median returns the middle value of vals (the mean of the middle two for
// an even count).
func median(vals []float64) float64 {
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// loadBaseline reads the committed JSON. Benchmark objects are decoded as
// loose maps: structural fields by name, every other numeric key (e.g.
// congest_msgs, table_rows) is a custom metric with '_' for '-'.
func loadBaseline(path string) (*Baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Description string                   `json:"description"`
		Revision    string                   `json:"revision"`
		Benchmarks  []map[string]interface{} `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("corrupt baseline %s: %w", path, err)
	}
	out := &Baseline{Description: doc.Description, Revision: doc.Revision}
	for i, b := range doc.Benchmarks {
		e := Entry{BPerOp: -1, AllocsPerOp: -1, Custom: map[string]float64{}}
		for k, v := range b {
			switch k {
			case "name":
				s, ok := v.(string)
				if !ok {
					return nil, fmt.Errorf("baseline %s: benchmark %d has a non-string name", path, i)
				}
				e.Name = s
				continue
			}
			f, ok := v.(float64)
			if !ok {
				return nil, fmt.Errorf("baseline %s: %v.%s is not a number", path, b["name"], k)
			}
			switch k {
			case "iterations":
				e.Iterations = int64(f)
			case "ns_per_op":
				e.NsPerOp = f
			case "B_per_op":
				e.BPerOp = f
			case "allocs_per_op":
				e.AllocsPerOp = f
			default:
				e.Custom[strings.ReplaceAll(k, "_", "-")] = f
			}
		}
		if e.Name == "" {
			return nil, fmt.Errorf("baseline %s: benchmark %d has no name", path, i)
		}
		out.Entries = append(out.Entries, e)
	}
	if len(out.Entries) == 0 {
		return nil, fmt.Errorf("baseline %s has no benchmarks", path)
	}
	return out, nil
}

// worstDeltas tracks the largest measured regressions (and structural
// failures with no delta to measure), for the failure message.
type worstDeltas struct {
	ns      float64
	allocs  float64
	bytes   float64
	missing int // baseline benchmarks absent from the run
}

// compare checks the run against the baseline and returns a human report,
// the number of gating regressions, and the worst measured deltas.
func compare(base *Baseline, run *Run, nsTol, allocsTol float64, allowMissing bool) (string, int, worstDeltas) {
	current := make(map[string]Entry, len(run.Entries))
	for _, e := range run.Entries {
		current[e.Name] = e
	}
	var sb strings.Builder
	regressions := 0
	var worst worstDeltas
	fmt.Fprintf(&sb, "benchcmp: baseline rev %s, %d benchmarks\n", base.Revision, len(base.Entries))
	for _, b := range base.Entries {
		cur, ok := current[b.Name]
		if !ok {
			if allowMissing {
				fmt.Fprintf(&sb, "  SKIP  %-38s not in this run\n", b.Name)
				continue
			}
			regressions++
			worst.missing++
			fmt.Fprintf(&sb, "  MISS  %-38s in baseline but not in this run (deleted a benchmark?)\n", b.Name)
			continue
		}
		status := "ok"
		var notes []string
		if b.NsPerOp > 0 {
			delta := cur.NsPerOp/b.NsPerOp - 1
			if delta > worst.ns {
				worst.ns = delta
			}
			if delta > nsTol {
				status = "FAIL"
				regressions++
			}
			notes = append(notes, fmt.Sprintf("ns/op %+.1f%%", delta*100))
		}
		// The memory gates share the tight tolerance.
		mem := []struct {
			unit      string
			base, cur float64
			worst     *float64
		}{
			{"allocs/op", b.AllocsPerOp, cur.AllocsPerOp, &worst.allocs},
			{"B/op", b.BPerOp, cur.BPerOp, &worst.bytes},
		}
		var unmeasured []string
		for _, g := range mem {
			if g.base >= 0 && g.cur < 0 {
				unmeasured = append(unmeasured, g.unit)
			}
		}
		if len(unmeasured) > 0 {
			// The baseline gates memory but this run did not measure it —
			// letting that pass silently would drop the gate's tightest
			// signal.
			status = "FAIL"
			regressions++
			notes = append(notes, strings.Join(unmeasured, " and ")+" unmeasured (run without -benchmem?)")
		}
		for _, g := range mem {
			if g.base < 0 || g.cur < 0 {
				continue
			}
			delta := 0.0
			if g.base > 0 {
				delta = g.cur/g.base - 1
			} else if g.cur > 0 {
				delta = 1
			}
			if delta > *g.worst {
				*g.worst = delta
			}
			if delta > allocsTol {
				status = "FAIL"
				regressions++
			}
			notes = append(notes, fmt.Sprintf("%s %+.1f%% (%.0f -> %.0f)", g.unit, delta*100, g.base, g.cur))
		}
		fmt.Fprintf(&sb, "  %-4s  %-38s %s\n", status, b.Name, strings.Join(notes, ", "))
	}
	// Benchmarks the run has but the baseline lacks are not failures, yet
	// they are ungated until someone re-baselines — say so, or the gap is
	// invisible behind an all-ok report.
	baselined := make(map[string]bool, len(base.Entries))
	for _, b := range base.Entries {
		baselined[b.Name] = true
	}
	for _, e := range run.Entries {
		if !baselined[e.Name] {
			fmt.Fprintf(&sb, "  NEW   %-38s not in the baseline — ungated until re-baselined (-write)\n", e.Name)
		}
	}
	return sb.String(), regressions, worst
}

// renderBaseline emits the BENCH_seed.json schema for a run, custom
// metrics as underscored keys, deterministically ordered.
func renderBaseline(run *Run, revision, benchtime string, seed int64) []byte {
	var sb strings.Builder
	sb.WriteString("{\n")
	fmt.Fprintf(&sb, "  %q: %q,\n", "description",
		"Benchmark baseline for hot-path delta tracking. Regenerate with: go test -run '^$' -bench . -benchmem -count 5 -benchtime 1x . (each value is the median of 5 single-iteration runs on a noisy shared vCPU: treat ns/op as indicative, B/op and allocs/op as exact).")
	fmt.Fprintf(&sb, "  %q: %q,\n", "revision", revision)
	fmt.Fprintf(&sb, "  %q: %d,\n", "seed_suite", seed)
	fmt.Fprintf(&sb, "  %q: %q,\n", "goos", run.Goos)
	fmt.Fprintf(&sb, "  %q: %q,\n", "goarch", run.Goarch)
	fmt.Fprintf(&sb, "  %q: %q,\n", "cpu", run.CPU)
	fmt.Fprintf(&sb, "  %q: %q,\n", "benchtime", benchtime)
	sb.WriteString("  \"benchmarks\": [\n")
	for i, e := range run.Entries {
		fields := []string{
			fmt.Sprintf("      %q: %q", "name", e.Name),
			fmt.Sprintf("      %q: %d", "iterations", e.Iterations),
			fmt.Sprintf("      %q: %s", "ns_per_op", formatNum(e.NsPerOp)),
		}
		keys := make([]string, 0, len(e.Custom))
		for k := range e.Custom {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fields = append(fields, fmt.Sprintf("      %q: %s",
				strings.ReplaceAll(k, "-", "_"), formatNum(e.Custom[k])))
		}
		if e.BPerOp >= 0 {
			fields = append(fields, fmt.Sprintf("      %q: %s", "B_per_op", formatNum(e.BPerOp)))
		}
		if e.AllocsPerOp >= 0 {
			fields = append(fields, fmt.Sprintf("      %q: %s", "allocs_per_op", formatNum(e.AllocsPerOp)))
		}
		sb.WriteString("    {\n")
		sb.WriteString(strings.Join(fields, ",\n"))
		if i < len(run.Entries)-1 {
			sb.WriteString("\n    },\n")
		} else {
			sb.WriteString("\n    }\n")
		}
	}
	sb.WriteString("  ]\n}\n")
	return []byte(sb.String())
}

// formatNum renders integral floats without an exponent or decimal point.
func formatNum(f float64) string {
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
