package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: wcle
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkElectClique64 	       1	  69565487 ns/op	     66588 congest-msgs	14800720 B/op	  139756 allocs/op
BenchmarkE1MessageScaling-8 	       1	1541150817 ns/op	         6.000 table-rows	211374984 B/op	 1732484 allocs/op
BenchmarkNoMem 	     100	      1234 ns/op
PASS
ok  	wcle	0.074s
`

func TestParseBenchOutput(t *testing.T) {
	run, err := parseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if run.Goos != "linux" || run.Goarch != "amd64" || !strings.Contains(run.CPU, "Xeon") {
		t.Fatalf("header: %+v", run)
	}
	if len(run.Entries) != 3 {
		t.Fatalf("parsed %d entries, want 3", len(run.Entries))
	}
	e := run.Entries[0]
	if e.Name != "BenchmarkElectClique64" || e.Iterations != 1 ||
		e.NsPerOp != 69565487 || e.BPerOp != 14800720 || e.AllocsPerOp != 139756 {
		t.Fatalf("entry 0: %+v", e)
	}
	if e.Custom["congest-msgs"] != 66588 {
		t.Fatalf("custom metric lost: %+v", e.Custom)
	}
	// The -8 GOMAXPROCS suffix must be stripped for stable names.
	if run.Entries[1].Name != "BenchmarkE1MessageScaling" {
		t.Fatalf("suffix not stripped: %q", run.Entries[1].Name)
	}
	if run.Entries[1].Custom["table-rows"] != 6 {
		t.Fatalf("fractional custom metric: %+v", run.Entries[1].Custom)
	}
	// Without -benchmem the memory fields are absent, not zero.
	if nm := run.Entries[2]; nm.BPerOp != -1 || nm.AllocsPerOp != -1 || nm.NsPerOp != 1234 {
		t.Fatalf("benchmem-less entry: %+v", nm)
	}
}

// Repeated lines of one benchmark (go test -count 5) fold into one entry
// holding the median of each field, in order of first appearance.
func TestParseFoldsRepeatsToMedian(t *testing.T) {
	const out = `BenchmarkA-2 	1	500 ns/op	7 congest-msgs	100 B/op	10 allocs/op
BenchmarkB 	1	42 ns/op
BenchmarkA-2 	1	100 ns/op	7 congest-msgs	120 B/op	12 allocs/op
BenchmarkA-2 	1	300 ns/op	9 congest-msgs	100 B/op	10 allocs/op
BenchmarkA-2 	1	9000 ns/op	9 congest-msgs	104 B/op	11 allocs/op
BenchmarkA-2 	1	200 ns/op	7 congest-msgs	100 B/op	10 allocs/op
`
	run, err := parseBenchOutput(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Entries) != 2 || run.Entries[0].Name != "BenchmarkA" || run.Entries[1].Name != "BenchmarkB" {
		t.Fatalf("entries: %+v", run.Entries)
	}
	a := run.Entries[0]
	if a.Iterations != 1 || a.NsPerOp != 300 || a.BPerOp != 100 || a.AllocsPerOp != 10 || a.Custom["congest-msgs"] != 7 {
		t.Fatalf("folded entry: %+v", a)
	}
	if b := run.Entries[1]; b.NsPerOp != 42 || b.AllocsPerOp != -1 {
		t.Fatalf("single entry: %+v", b)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median of an even count: %v, want 2.5", m)
	}
}

func TestLoadCommittedBaseline(t *testing.T) {
	// The committed baseline itself must stay parseable: it is what CI
	// gates on.
	base, err := loadBaseline(filepath.Join("..", "..", "BENCH_seed.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Entries) < 20 {
		t.Fatalf("suspiciously few baseline benchmarks: %d", len(base.Entries))
	}
	byName := map[string]Entry{}
	for _, e := range base.Entries {
		byName[e.Name] = e
	}
	e, ok := byName["BenchmarkElectClique64"]
	if !ok {
		t.Fatal("BenchmarkElectClique64 missing from baseline")
	}
	if e.AllocsPerOp <= 0 || e.NsPerOp <= 0 {
		t.Fatalf("baseline entry empty: %+v", e)
	}
	if e.Custom["congest-msgs"] != 66588 {
		t.Fatalf("baseline custom metric: %+v", e.Custom)
	}
}

func baselineOf(entries ...Entry) *Baseline {
	return &Baseline{Revision: "test", Entries: entries}
}

func runOf(entries ...Entry) *Run {
	return &Run{Entries: entries}
}

func TestCompare(t *testing.T) {
	base := baselineOf(
		Entry{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100, BPerOp: 5000},
		Entry{Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 100, BPerOp: 5000},
	)
	// Within tolerance: +20% ns at 25% tolerance, equal allocs.
	_, n, _ := compare(base, runOf(
		Entry{Name: "BenchmarkA", NsPerOp: 1200, AllocsPerOp: 100, BPerOp: 5000},
		Entry{Name: "BenchmarkB", NsPerOp: 900, AllocsPerOp: 90, BPerOp: 4000},
	), 0.25, 0, false)
	if n != 0 {
		t.Fatalf("within-tolerance run flagged %d regressions", n)
	}
	// ns blowup fails.
	rep, n, _ := compare(base, runOf(
		Entry{Name: "BenchmarkA", NsPerOp: 1300, AllocsPerOp: 100, BPerOp: 5000},
		Entry{Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 100, BPerOp: 5000},
	), 0.25, 0, false)
	if n != 1 || !strings.Contains(rep, "FAIL") {
		t.Fatalf("ns regression not flagged (n=%d):\n%s", n, rep)
	}
	// Any allocs increase fails at zero tolerance...
	_, n, _ = compare(base, runOf(
		Entry{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 101, BPerOp: 5000},
		Entry{Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 100, BPerOp: 5000},
	), 0.25, 0, false)
	if n != 1 {
		t.Fatalf("allocs regression not flagged: n=%d", n)
	}
	// ...but passes under a nonzero allocs tolerance.
	_, n, _ = compare(base, runOf(
		Entry{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 101, BPerOp: 5000},
		Entry{Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 100, BPerOp: 5000},
	), 0.25, 0.05, false)
	if n != 0 {
		t.Fatalf("allocs within tolerance still flagged: n=%d", n)
	}
	// A benchmark missing from the run is a failure unless allowed.
	_, n, _ = compare(base, runOf(
		Entry{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100, BPerOp: 5000},
	), 0.25, 0, false)
	if n != 1 {
		t.Fatalf("missing benchmark not flagged: n=%d", n)
	}
	rep, n, _ = compare(base, runOf(
		Entry{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100, BPerOp: 5000},
	), 0.25, 0, true)
	if n != 0 || !strings.Contains(rep, "SKIP") {
		t.Fatalf("allow-missing not honored (n=%d):\n%s", n, rep)
	}
	// A baseline that gates allocations vs a run measured without
	// -benchmem must fail loudly, not skip the allocation gate.
	rep, n, _ = compare(base, runOf(
		Entry{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: -1, BPerOp: -1},
		Entry{Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 100, BPerOp: 5000},
	), 0.25, 0, false)
	if n != 1 || !strings.Contains(rep, "unmeasured") {
		t.Fatalf("benchmem-less run not flagged (n=%d):\n%s", n, rep)
	}
	// New benchmarks absent from the baseline are not failures, but they
	// must be called out as ungated.
	rep, n, _ = compare(base, runOf(
		Entry{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100, BPerOp: 5000},
		Entry{Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 100, BPerOp: 5000},
		Entry{Name: "BenchmarkNew", NsPerOp: 1, AllocsPerOp: 1, BPerOp: 1},
	), 0.25, 0, false)
	if n != 0 {
		t.Fatalf("novel benchmark treated as regression: n=%d", n)
	}
	if !strings.Contains(rep, "NEW") || !strings.Contains(rep, "BenchmarkNew") {
		t.Fatalf("novel benchmark not reported as ungated:\n%s", rep)
	}
}

// Re-baselining must round-trip: write a baseline from a parsed run, read
// it back, and gate that same run cleanly against it.
func TestWriteRoundTrip(t *testing.T) {
	run, err := parseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, renderBaseline(run, "deadbeef", "1x", 42), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if base.Revision != "deadbeef" || len(base.Entries) != len(run.Entries) {
		t.Fatalf("round-trip header/count: %+v", base)
	}
	for i, e := range base.Entries {
		orig := run.Entries[i]
		if e.Name != orig.Name || e.NsPerOp != orig.NsPerOp ||
			e.AllocsPerOp != orig.AllocsPerOp || e.BPerOp != orig.BPerOp ||
			len(e.Custom) != len(orig.Custom) {
			t.Fatalf("entry %d differs: %+v vs %+v", i, e, orig)
		}
		for k, v := range orig.Custom {
			if e.Custom[k] != v {
				t.Fatalf("custom %q lost: %+v", k, e.Custom)
			}
		}
	}
	_, n, _ := compare(base, run, 0, 0, false)
	if n != 0 {
		t.Fatalf("identical run vs its own baseline flagged %d regressions", n)
	}
}

// The failure path surfaces the measured margin: worst deltas track the
// largest ns/op and allocs/op regressions across the whole run.
func TestCompareWorstDeltas(t *testing.T) {
	base := baselineOf(
		Entry{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100, BPerOp: 1},
		Entry{Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 100, BPerOp: 1},
	)
	_, n, worst := compare(base, runOf(
		Entry{Name: "BenchmarkA", NsPerOp: 1500, AllocsPerOp: 112, BPerOp: 1},
		Entry{Name: "BenchmarkB", NsPerOp: 1100, AllocsPerOp: 101, BPerOp: 1},
	), 0.25, 0.01, false)
	if n != 3 { // A fails both gates, B fails allocs only
		t.Fatalf("expected 3 regressions, got %d", n)
	}
	if worst.ns < 0.499 || worst.ns > 0.501 {
		t.Fatalf("worst ns delta %.3f, want ~0.50", worst.ns)
	}
	if worst.allocs < 0.119 || worst.allocs > 0.121 {
		t.Fatalf("worst allocs delta %.3f, want ~0.12", worst.allocs)
	}
}

// B/op gates like allocs/op, at the same tolerance.
func TestCompareBytes(t *testing.T) {
	base := baselineOf(
		Entry{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100, BPerOp: 5000},
		Entry{Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 100, BPerOp: -1},
	)
	// +2% B/op with allocs unchanged fails at a 1% tolerance...
	rep, n, worst := compare(base, runOf(
		Entry{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100, BPerOp: 5100},
		Entry{Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 100, BPerOp: 9999},
	), 0.25, 0.01, false)
	if n != 1 || !strings.Contains(rep, "FAIL  BenchmarkA") || !strings.Contains(rep, "B/op +2.0% (5000 -> 5100)") {
		t.Fatalf("B/op regression not flagged (n=%d):\n%s", n, rep)
	}
	if worst.bytes < 0.019 || worst.bytes > 0.021 || worst.allocs != 0 {
		t.Fatalf("worst B/op delta %.3f, allocs %.3f, want ~0.02 and 0", worst.bytes, worst.allocs)
	}
	// ...passes within it, and a baseline without B/op gates none.
	_, n, _ = compare(base, runOf(
		Entry{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100, BPerOp: 5040},
		Entry{Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 100, BPerOp: 9999},
	), 0.25, 0.01, false)
	if n != 0 {
		t.Fatalf("B/op within tolerance flagged: n=%d", n)
	}
	// A zero baseline gates any growth.
	_, n, _ = compare(baselineOf(Entry{Name: "BenchmarkZ", NsPerOp: 1, AllocsPerOp: 0, BPerOp: 0}),
		runOf(Entry{Name: "BenchmarkZ", NsPerOp: 1, AllocsPerOp: 0, BPerOp: 8}), 0.25, 0.01, false)
	if n != 1 {
		t.Fatalf("B/op growth from zero not flagged: n=%d", n)
	}
}

// A run without B/op against a baseline that has it fails, even with
// allocs/op measured and unchanged.
func TestCompareBytesUnmeasured(t *testing.T) {
	base := baselineOf(
		Entry{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100, BPerOp: 5000},
		Entry{Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 100, BPerOp: -1},
	)
	rep, n, _ := compare(base, runOf(
		Entry{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 100, BPerOp: -1},
		Entry{Name: "BenchmarkB", NsPerOp: 1000, AllocsPerOp: 100, BPerOp: -1},
	), 0.25, 0.01, false)
	if n != 1 || !strings.Contains(rep, "B/op unmeasured") {
		t.Fatalf("run without B/op not flagged (n=%d):\n%s", n, rep)
	}
}
