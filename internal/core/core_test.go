package core

import (
	"math/rand"
	"testing"

	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/protocol"
	"wcle/internal/spectral"
)

func clique(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.Clique(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func expander(t *testing.T, n, d int, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.RandomRegular(n, d, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// lowThreshold returns a config with interT == 1, suitable for small forced
// contender sets: ceil(0.75 * 0.3 * ln n) = 1 for n <= ~80.
func lowThreshold() Config {
	cfg := DefaultConfig()
	cfg.C1 = 0.3
	return cfg
}

func TestForcedTwoContendersMaxIDWins(t *testing.T) {
	g := clique(t, 16)
	cfg := lowThreshold()
	cfg.ForcedContenders = []int{3, 9}
	cfg.ForcedIDs = map[int]protocol.ID{3: 100, 9: 200}
	res, err := Run(g, cfg, engine.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Leaders) != 1 || res.Leaders[0] != 9 {
		t.Fatalf("leaders = %v, want [9] (the max id)", res.Leaders)
	}
	if res.LeaderIDs[0] != 200 {
		t.Fatalf("leader id = %d, want 200", res.LeaderIDs[0])
	}
	if !res.Success {
		t.Fatal("Success should be true")
	}
	if len(res.Contenders) != 2 {
		t.Fatalf("contenders = %v", res.Contenders)
	}
}

func TestForcedContendersAcrossSeeds(t *testing.T) {
	// The max-id forced contender must win regardless of the seed (walk
	// randomness must not change the outcome, only the cost).
	g := expander(t, 32, 4, 11)
	for seed := int64(0); seed < 8; seed++ {
		cfg := lowThreshold()
		cfg.ForcedContenders = []int{1, 7, 20}
		cfg.ForcedIDs = map[int]protocol.ID{1: 10, 7: 30, 20: 20}
		res, err := Run(g, cfg, engine.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Leaders) != 1 || res.Leaders[0] != 7 {
			t.Fatalf("seed %d: leaders = %v, want [7]", seed, res.Leaders)
		}
	}
}

func TestSingleContenderCannotSatisfyIntersection(t *testing.T) {
	// With one contender, the Intersection Property (adjacency to >= 3/4 c1
	// log n OTHER contenders) is unsatisfiable: the contender must exhaust
	// its guesses and fail. This is the algorithm's documented behavior
	// outside Lemma 1's w.h.p. regime.
	g := clique(t, 16)
	cfg := DefaultConfig()
	cfg.ForcedContenders = []int{4}
	cfg.MaxWalkLen = 8 // keep the run short
	res, err := Run(g, cfg, engine.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Leaders) != 0 {
		t.Fatalf("leaders = %v, want none", res.Leaders)
	}
	if len(res.Failed) != 1 || res.Failed[0] != 4 {
		t.Fatalf("failed = %v, want [4]", res.Failed)
	}
	if res.Success {
		t.Fatal("Success must be false")
	}
}

func TestNoContenders(t *testing.T) {
	g := clique(t, 8)
	cfg := DefaultConfig()
	cfg.ForcedContenders = []int{} // non-nil empty: nobody runs
	res, err := Run(g, cfg, engine.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Leaders) != 0 || len(res.Contenders) != 0 {
		t.Fatalf("unexpected activity: %+v", res)
	}
	if res.Metrics.Messages != 0 {
		t.Fatalf("messages = %d, want 0", res.Metrics.Messages)
	}
}

// TestAtMostOneLeaderInvariant is the central safety test: across seeds and
// families, the algorithm may fail to elect (zero leaders) but must never
// elect two.
func TestAtMostOneLeaderInvariant(t *testing.T) {
	graphs := []*graph.Graph{
		clique(t, 24),
		expander(t, 64, 6, 3),
	}
	if hc, err := graph.Hypercube(5, nil); err == nil {
		graphs = append(graphs, hc)
	} else {
		t.Fatal(err)
	}
	for _, g := range graphs {
		for seed := int64(0); seed < 6; seed++ {
			res, err := Run(g, DefaultConfig(), engine.Options{Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", g.Name(), seed, err)
			}
			if len(res.Leaders) > 1 {
				t.Fatalf("%s seed %d: MULTIPLE LEADERS %v", g.Name(), seed, res.Leaders)
			}
		}
	}
}

func TestUniqueLeaderSuccessRate(t *testing.T) {
	// Lemma 11: exactly one leader w.h.p. At n=64 with default constants
	// the guarantee is asymptotic; we require a generous 80% success over
	// 10 seeds (empirically it is ~100%).
	g := expander(t, 64, 6, 9)
	wins := 0
	trials := 10
	for seed := int64(0); seed < int64(trials); seed++ {
		res, err := Run(g, DefaultConfig(), engine.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Success {
			wins++
		}
	}
	if wins < trials*8/10 {
		t.Fatalf("success rate %d/%d below 80%%", wins, trials)
	}
}

func TestDeterministicReplay(t *testing.T) {
	g := expander(t, 48, 4, 21)
	r1, err := Run(g, DefaultConfig(), engine.Options{Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(g, DefaultConfig(), engine.Options{Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Metrics.Messages != r2.Metrics.Messages || r1.Rounds != r2.Rounds {
		t.Fatalf("replay diverged: %d/%d vs %d/%d msgs/rounds",
			r1.Metrics.Messages, r1.Rounds, r2.Metrics.Messages, r2.Rounds)
	}
	if len(r1.Leaders) != len(r2.Leaders) || (len(r1.Leaders) == 1 && r1.Leaders[0] != r2.Leaders[0]) {
		t.Fatalf("leaders diverged: %v vs %v", r1.Leaders, r2.Leaders)
	}
}

func TestConcurrentEngineEquivalence(t *testing.T) {
	g := expander(t, 48, 4, 22)
	seq, err := Run(g, DefaultConfig(), engine.Options{Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(g, DefaultConfig(), engine.Options{Seed: 44, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Metrics.Messages != par.Metrics.Messages || seq.Rounds != par.Rounds {
		t.Fatalf("engines diverge: %d/%d vs %d/%d",
			seq.Metrics.Messages, seq.Rounds, par.Metrics.Messages, par.Rounds)
	}
	if len(seq.Leaders) != len(par.Leaders) || (len(seq.Leaders) == 1 && seq.Leaders[0] != par.Leaders[0]) {
		t.Fatalf("leaders diverge: %v vs %v", seq.Leaders, par.Leaders)
	}
}

func TestKnownTmixBaseline(t *testing.T) {
	// The [25]-style baseline: one phase of length c3 * tmix, unconditional
	// stop. On a clique tmix is tiny.
	g := clique(t, 64)
	tmix, err := spectral.MixingTime(g, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.FixedWalkLen = 2 * tmix
	res, err := Run(g, cfg, engine.Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.PhasesUsed != 1 {
		t.Fatalf("phases = %d, want 1", res.PhasesUsed)
	}
	if len(res.Leaders) != 1 {
		t.Fatalf("leaders = %v, want one", res.Leaders)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("failed = %v, want none (unconditional stop)", res.Failed)
	}
}

func TestGuessDoubleTracksMixing(t *testing.T) {
	// Lemma 3/6: the final guess settles at O(tmix). We check the final tu
	// of every stopped contender is within [1, 32*tmix] on an expander (the
	// constant band is generous; the shape is what matters).
	g := expander(t, 128, 8, 5)
	tmix, err := spectral.MixingTimeSampled(g, spectral.DefaultEps(g.N()), 100000, []int{0, 7, 99})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, DefaultConfig(), engine.Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stopped) == 0 {
		t.Fatal("no contender stopped")
	}
	for _, v := range res.Stopped {
		tu := res.FinalTu[v]
		if tu < 1 || tu > 32*tmix {
			t.Fatalf("contender %d final tu %d outside [1, 32*tmix=%d]", v, tu, 32*tmix)
		}
	}
}

func TestLargeMessageModeUsesFewerMessages(t *testing.T) {
	// Lemma 12: with O(log^3 n) message sizes the count drops (id sets are
	// not chunked).
	g := expander(t, 64, 6, 13)
	congest, err := Run(g, DefaultConfig(), engine.Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfgL := DefaultConfig()
	cfgL.Mode = protocol.ModeLarge
	large, err := Run(g, cfgL, engine.Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if large.Metrics.Messages >= congest.Metrics.Messages {
		t.Fatalf("large mode %d messages >= congest %d", large.Metrics.Messages, congest.Metrics.Messages)
	}
	if !large.Success || !congest.Success {
		t.Fatalf("both modes should elect: large=%v congest=%v", large.Success, congest.Success)
	}
}

func TestBudgetedRunCannotElect(t *testing.T) {
	// With a trivial budget no information flows: nobody should elect.
	g := clique(t, 32)
	res, err := Run(g, DefaultConfig(), engine.Options{Seed: 3, Budget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Dropped == 0 {
		t.Fatal("expected dropped messages under budget")
	}
	if len(res.Leaders) != 0 {
		t.Fatalf("leaders = %v under a 10-message budget", res.Leaders)
	}
}

func TestAblationsRun(t *testing.T) {
	g := expander(t, 48, 4, 17)
	for _, mod := range []func(*Config){
		func(c *Config) { c.DisableDistinctness = true },
		func(c *Config) { c.DisableInactiveExchange = true },
		func(c *Config) { c.DisablePiggyback = true },
	} {
		cfg := DefaultConfig()
		mod(&cfg)
		res, err := Run(g, cfg, engine.Options{Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Contenders) == 0 {
			t.Fatal("no contenders sampled")
		}
	}
}

func TestContenderAccounting(t *testing.T) {
	g := expander(t, 64, 6, 31)
	res, err := Run(g, DefaultConfig(), engine.Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Every contender is exactly one of stopped / suppressed / failed.
	classified := len(res.Stopped) + len(res.Suppressed) + len(res.Failed)
	if classified != len(res.Contenders) {
		t.Fatalf("classification mismatch: %d+%d+%d != %d contenders",
			len(res.Stopped), len(res.Suppressed), len(res.Failed), len(res.Contenders))
	}
	// Every contender has a final tu.
	for _, v := range res.Contenders {
		if res.FinalTu[v] < 1 {
			t.Fatalf("contender %d missing final tu", v)
		}
	}
	// Leaders must be stopped contenders.
	for _, l := range res.Leaders {
		found := false
		for _, s := range res.Stopped {
			if s == l {
				found = true
			}
		}
		if !found {
			t.Fatalf("leader %d not among stopped", l)
		}
	}
	// Parameter reporting sanity.
	if res.Walks < 1 || res.InterThreshold < 1 || res.DistinctThreshold < 1 {
		t.Fatalf("thresholds missing: %+v", res)
	}
}

func TestMessageKindsPresent(t *testing.T) {
	g := clique(t, 24)
	res, err := Run(g, DefaultConfig(), engine.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{protocol.KindToken, protocol.KindUp, protocol.KindDown} {
		if res.Metrics.ByKind[kind] == 0 {
			t.Fatalf("no %q messages recorded: %v", kind, res.Metrics.ByKind)
		}
	}
	if res.Metrics.Bits <= res.Metrics.Messages {
		t.Fatal("bit accounting looks wrong")
	}
}

func TestRunValidation(t *testing.T) {
	g := clique(t, 8)
	if _, err := Run(g, Config{}, engine.Options{}); err == nil {
		t.Fatal("zero config must be rejected")
	}
}
