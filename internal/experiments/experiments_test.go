package experiments

import (
	"strings"
	"testing"
)

func TestTableMarkdown(t *testing.T) {
	tab := &Table{ID: "EX", Title: "demo", Columns: []string{"a", "b"}}
	tab.AddRow("1", "2")
	tab.AddNote("note %d", 7)
	tab.Plot = "fake plot\n"
	md := tab.Markdown()
	for _, want := range []string{"### EX — demo", "| a | b |", "| 1 | 2 |", "> note 7",
		"```text\nfake plot\n```"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestAllSpecsRegistered(t *testing.T) {
	specs := All()
	if len(specs) != 22 {
		t.Fatalf("got %d specs, want 22", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.ID] {
			t.Fatalf("duplicate id %s", s.ID)
		}
		seen[s.ID] = true
		if s.Render == nil || s.Name == "" || s.Title == "" || s.Claim == "" {
			t.Fatalf("spec %s incomplete", s.ID)
		}
		if s.DataFrom == "" {
			if s.Points == nil || s.Trial == nil || s.FullTrials <= 0 || s.QuickTrials <= 0 {
				t.Fatalf("data spec %s incomplete", s.ID)
			}
		} else {
			data, ok := Get(s.DataFrom)
			if !ok || data.DataFrom != "" {
				t.Fatalf("%s: DataFrom %q must name a data-owning spec", s.ID, s.DataFrom)
			}
		}
	}
	if _, ok := Get("E1"); !ok {
		t.Fatal("Get(E1) failed")
	}
	if _, ok := Get("E99"); ok {
		t.Fatal("Get(E99) should fail")
	}
	if len(IDs()) != 22 {
		t.Fatal("IDs() wrong length")
	}
}

func TestResolve(t *testing.T) {
	all, err := Resolve(nil)
	if err != nil || len(all) != 22 {
		t.Fatalf("Resolve(nil) = %d specs, err %v", len(all), err)
	}
	some, err := Resolve([]string{"E7", "E1", "E7", " E3 "})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, s := range some {
		ids = append(ids, s.ID)
	}
	// Registry order, deduplicated.
	if len(ids) != 3 || ids[0] != "E1" || ids[1] != "E3" || ids[2] != "E7" {
		t.Fatalf("Resolve order/dedup wrong: %v", ids)
	}
	if _, err := Resolve([]string{"E99"}); err == nil {
		t.Fatal("unknown id should fail")
	}
}

func TestBuildFamilyErrors(t *testing.T) {
	if _, err := buildFamily("nope", 16, 1); err == nil {
		t.Fatal("unknown family should fail")
	}
	if _, err := buildFamily("hypercube", 48, 1); err == nil {
		t.Fatal("non-power-of-two hypercube should fail")
	}
}

func TestPointKeysUniqueAndStable(t *testing.T) {
	for _, cfg := range []SuiteConfig{{Seed: 1, Quick: true}, {Seed: 1}} {
		for _, s := range All() {
			if s.DataFrom != "" {
				continue
			}
			seen := map[string]bool{}
			for _, pt := range s.Points(cfg) {
				if pt.Key == "" || seen[pt.Key] {
					t.Fatalf("%s: point key %q empty or duplicated", s.ID, pt.Key)
				}
				seen[pt.Key] = true
			}
			if len(seen) == 0 {
				t.Fatalf("%s has no points", s.ID)
			}
		}
	}
}

func TestMaxNCapsPoints(t *testing.T) {
	cfg := SuiteConfig{Seed: 1, Quick: true, MaxN: 40}
	for _, s := range All() {
		if s.DataFrom != "" {
			continue
		}
		for _, pt := range s.Points(cfg) {
			if pt.N > cfg.MaxN {
				t.Fatalf("%s: MaxN not applied: point %+v", s.ID, pt)
			}
		}
	}
	if cfg.lbSize() != 40 {
		t.Fatalf("lbSize not capped: %d", cfg.lbSize())
	}
}

// TestQuickSuite exercises every experiment end to end in the quick regime
// on the parallel harness. This is the integration test of the whole
// reproduction pipeline.
func TestQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("quick suite still takes tens of seconds; skipped in -short mode")
	}
	cfg := SuiteConfig{Seed: 42, Quick: true}
	h := &Harness{Config: cfg, Progress: t.Logf}
	res, err := h.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range All() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			data, err := DataFor(s, cfg, res)
			if err != nil {
				t.Fatal(err)
			}
			tab, err := s.Render(cfg, data)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) == 0 {
				t.Fatalf("%s produced no rows", s.ID)
			}
			if len(tab.Columns) == 0 || tab.ID != s.ID {
				t.Fatalf("%s table malformed: %+v", s.ID, tab)
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Fatalf("%s row width %d != %d columns", s.ID, len(row), len(tab.Columns))
				}
			}
			md := tab.Markdown()
			if !strings.Contains(md, s.ID) {
				t.Fatalf("%s markdown missing id", s.ID)
			}
		})
	}
	var sb strings.Builder
	if err := RenderSuite(&sb, cfg, nil, res, "test"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "### E20") {
		t.Fatal("rendered suite missing last experiment")
	}
}

func TestResolveBlankOnlyIDsRejected(t *testing.T) {
	for _, ids := range [][]string{{""}, {",", " "}, {"", " "}} {
		if _, err := Resolve(ids); err == nil {
			t.Fatalf("Resolve(%q) should fail, not silently select nothing", ids)
		}
	}
}
