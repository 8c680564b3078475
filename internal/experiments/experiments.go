// Package experiments defines the reproduction suite: one Spec per
// experiment of DESIGN.md (E1..E23; E21 is retired), each regenerating the measurements that
// stand in for the paper's quantitative claims (the paper is a theory paper
// with no empirical tables; every theorem/lemma/corollary with a complexity
// statement becomes a table here, plus the Figure 1/2 construction checks,
// the fault-resilience sweep E15, the engine throughput benchmark E16, the
// E17/E18 algorithm-backend head-to-head grids over the algo registry, the
// E19 wire-level cluster measurement over loopback TCP, the E20
// supervised-failover measurement of crash recovery on that cluster, the
// E22 protocol-registry determinism
// sweep over every engine-registered protocol, and the E23 adversary
// tournament — backend × graph family × adversary, undefended and under
// committee-sampled validation).
//
// A Spec decomposes an experiment into measurement Points (a graph family
// and size, a conductance scale, an ablation variant, ...) and independent
// Trials per point. The parallel harness in harness.go fans trials out
// across a worker pool with deterministic per-trial seeds, streams them
// into per-point aggregation (internal/stats), and checkpoints raw trial
// metrics as JSON so interrupted suites resume. Render turns aggregated
// points back into the Tables that cmd/benchsuite writes to EXPERIMENTS.md
// and that bench_test.go exposes as testing.B benchmarks.
//
// Several experiments are different views of one shared measurement grid:
// E2, E5, and E13 set DataFrom = "E1" and render the E1 upper-bound grid's
// trial data instead of re-running elections of their own.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Table is one experiment's rendered output.
type Table struct {
	ID    string
	Title string
	// Preamble, when non-empty, is the narrative paragraph rendered
	// between the heading and the table: what paper claim the experiment
	// checks and what asymptotic shape to expect. RenderSuite fills it
	// from the spec.
	Preamble string
	Columns  []string
	Rows     [][]string
	Notes    []string
	// Plot, when non-empty, is an ASCII trend plot rendered as a fenced
	// code block under the table.
	Plot string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a free-form note rendered under the table.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Markdown renders the table.
func (t *Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", t.ID, t.Title)
	if t.Preamble != "" {
		sb.WriteString(t.Preamble + "\n\n")
	}
	sb.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	sb.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		sb.WriteString("\n> " + n + "\n")
	}
	if t.Plot != "" {
		sb.WriteString("\n```text\n" + strings.TrimRight(t.Plot, "\n") + "\n```\n")
	}
	sb.WriteString("\n")
	return sb.String()
}

// Metrics is the scalar measurement vector one trial produces, keyed by
// metric name. Values must be finite; 0/1 encodes booleans.
type Metrics map[string]float64

// SuiteConfig parameterizes one suite run. The zero value plus a seed is
// the full regime.
type SuiteConfig struct {
	// Seed drives every trial in the suite deterministically.
	Seed int64
	// Quick shrinks sizes and trial counts for CI/tests; the full regime
	// is what EXPERIMENTS.md records.
	Quick bool
	// Trials, when positive, overrides every spec's per-point trial count.
	Trials int
	// MaxN, when positive, drops measurement points whose graph size
	// exceeds it (and caps the lower-bound construction size).
	MaxN int
}

// trialsFor resolves the per-point trial count for a spec.
func (c SuiteConfig) trialsFor(s Spec) int {
	if c.Trials > 0 {
		return c.Trials
	}
	if c.Quick {
		return s.QuickTrials
	}
	return s.FullTrials
}

// capSizes filters a size list by MaxN.
func (c SuiteConfig) capSizes(sizes []int) []int {
	if c.MaxN <= 0 {
		return sizes
	}
	out := make([]int, 0, len(sizes))
	for _, n := range sizes {
		if n <= c.MaxN {
			out = append(out, n)
		}
	}
	return out
}

// lbSize is the lower-bound construction size for the regime.
func (c SuiteConfig) lbSize() int {
	n := 1024
	if c.Quick {
		n = 512
	}
	if c.MaxN > 0 && c.MaxN < n {
		n = c.MaxN
	}
	return n
}

// Point is one measurement point of an experiment. Key must be unique
// within the experiment and stable across runs (it keys checkpoint
// entries); the remaining fields carry whatever parameters the spec's
// Trial understands.
type Point struct {
	Key    string
	Family string
	N      int
	Alpha  float64
	Label  string
	Mult   int
}

// Spec is one registry-driven experiment.
type Spec struct {
	ID    string
	Name  string
	Title string
	// Claim names the paper statement the experiment exercises.
	Claim string
	// Preamble is the narrative paragraph rendered ahead of the table:
	// what claim the experiment checks and the expected asymptotic shape.
	Preamble string

	// DataFrom, when set, makes this experiment a pure view: it renders
	// the named experiment's trial data and contributes no trials itself.
	DataFrom string

	// FullTrials/QuickTrials are the per-point trial counts of the two
	// regimes (ignored when DataFrom is set).
	FullTrials  int
	QuickTrials int

	// Points enumerates the measurement points for a regime.
	Points func(cfg SuiteConfig) []Point
	// Setup, optional, runs once per point (cached by the harness, seeded
	// deterministically from the point key) and hands its result to every
	// trial of that point. Expensive point-level work (graph construction,
	// mixing-time measurement) lives here.
	Setup func(cfg SuiteConfig, pt Point, seed int64) (interface{}, error)
	// Trial runs one independent trial and returns its metrics. seed is
	// derived deterministically from (suite seed, experiment, point,
	// trial index) and is the only randomness the trial may use.
	Trial func(cfg SuiteConfig, pt Point, setup interface{}, seed int64) (Metrics, error)
	// Render turns the aggregated per-point trial data into the table.
	Render func(cfg SuiteConfig, data []PointData) (*Table, error)
}

// DataID returns the id of the experiment whose trial data this spec
// renders (itself unless DataFrom is set).
func (s Spec) DataID() string {
	if s.DataFrom != "" {
		return s.DataFrom
	}
	return s.ID
}

// All returns every experiment spec in E1..E23 order (E21, the retired
// cluster-barrier ablation, has no spec).
func All() []Spec {
	return []Spec{
		e1Spec(), e2Spec(), e3Spec(), e4Spec(), e5Spec(), e6Spec(), e7Spec(),
		e8Spec(), e9Spec(), e10Spec(), e11Spec(), e12Spec(), e13Spec(), e14Spec(),
		e15Spec(), e16Spec(), e17Spec(), e18Spec(), e19Spec(), e20Spec(),
		e22Spec(), e23Spec(),
	}
}

// Get returns a single experiment spec by id.
func Get(id string) (Spec, bool) {
	for _, s := range All() {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// IDs lists all experiment ids (sorted lexicographically).
func IDs() []string {
	var out []string
	for _, s := range All() {
		out = append(out, s.ID)
	}
	sort.Strings(out)
	return out
}

// Resolve maps a list of experiment ids to specs, preserving registry
// order and deduplicating. nil or empty selects every experiment.
func Resolve(ids []string) ([]Spec, error) {
	if len(ids) == 0 {
		return All(), nil
	}
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if _, ok := Get(id); !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
		}
		want[id] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("experiments: no experiment ids in %q (known: %v)", strings.Join(ids, ","), IDs())
	}
	var out []Spec
	for _, s := range All() {
		if want[s.ID] {
			out = append(out, s)
		}
	}
	return out, nil
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func g3(v float64) string { return fmt.Sprintf("%.3g", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }
func d64(v int64) string  { return fmt.Sprintf("%d", v) }
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
