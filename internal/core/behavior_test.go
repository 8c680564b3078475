package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/protocol"
	"wcle/internal/sim"
)

// TestWinnerSuppressionAcrossPhases forces a scenario where the max-id
// contender satisfies the properties one phase after a smaller-id
// contender: the smaller one elects first (it stops first and sees no
// competitor), and the later one must be suppressed by the winner message
// (Claim 10's mechanism).
func TestWinnerSuppressionAcrossPhases(t *testing.T) {
	// A barbell makes one side mix internally long before information
	// reaches the other side, staggering the stop rounds.
	g, err := graph.Barbell(12, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := lowThreshold() // interT = 1
	cfg.ForcedContenders = []int{0, 1, 12, 13}
	cfg.ForcedIDs = map[int]protocol.ID{0: 10, 1: 20, 12: 900, 13: 800}
	cfg.MaxWalkLen = 512
	for seed := int64(0); seed < 5; seed++ {
		res, err := Run(g, cfg, engine.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Leaders) > 1 {
			t.Fatalf("seed %d: multiple leaders %v", seed, res.Leaders)
		}
	}
}

// TestSuppressedContenderStillCountsForOthers checks the FINAL-latch
// design: a contender that quits after a winner sighting must remain
// visible through its final proxies so remaining actives can still satisfy
// the intersection property.
func TestSuppressedContenderStillCountsForOthers(t *testing.T) {
	g, err := graph.Clique(24, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, DefaultConfig(), engine.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Everyone classified; in particular suppressed contenders exist in
	// most clique runs and nobody is left unclassified/looping.
	if len(res.Stopped)+len(res.Suppressed)+len(res.Failed) != len(res.Contenders) {
		t.Fatalf("unclassified contenders: %+v", res)
	}
}

// TestAssumedNSmallerThanGraph verifies the Theorem 28 hook: believed n
// changes thresholds and id ranges but the run still executes cleanly on
// the larger real graph.
func TestAssumedNSmallerThanGraph(t *testing.T) {
	g, err := graph.Clique(32, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.AssumedN = 16
	res, err := Run(g, cfg, engine.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p16, err := ResolveParams(16, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.InterThreshold != p16.InterThreshold || res.Walks != p16.Walks {
		t.Fatalf("assumed-n parameters not applied: %+v vs %+v", res.InterThreshold, p16.InterThreshold)
	}
	if len(res.Leaders) > 2 {
		t.Fatalf("leaders = %v", res.Leaders)
	}
}

// TestResolveParams sanity-checks the exported parameter resolution.
func TestResolveParams(t *testing.T) {
	p, err := ResolveParams(256, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.ContenderProb <= 0 || p.ContenderProb > 1 {
		t.Fatalf("prob = %v", p.ContenderProb)
	}
	if p.Walks <= 0 || p.InterThreshold <= 0 || p.DistinctThreshold <= 0 || p.MaxWalkLen != 1024 {
		t.Fatalf("params = %+v", p)
	}
	if _, err := ResolveParams(1, DefaultConfig()); err == nil {
		t.Fatal("n=1 should fail")
	}
}

// TestTinyNetworks exercises the smallest legal networks end to end.
func TestTinyNetworks(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		g, err := graph.Clique(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.MaxWalkLen = 8
		res, err := Run(g, cfg, engine.Options{Seed: int64(n)})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(res.Leaders) > 1 {
			t.Fatalf("n=%d: leaders %v", n, res.Leaders)
		}
	}
}

// TestPropertyNeverTwoLeaders is the safety property under randomized
// configurations: across random seeds, sizes, and degrees, no run elects
// two leaders with the default clarifications enabled.
func TestPropertyNeverTwoLeaders(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	prop := func(seedRaw int64, nRaw, dRaw uint8) bool {
		n := 16 + int(nRaw)%48
		d := 4 + int(dRaw)%3
		if n*d%2 != 0 {
			n++
		}
		g, err := graph.RandomRegular(n, d, rand.New(rand.NewSource(seedRaw)))
		if err != nil {
			return false
		}
		cfg := DefaultConfig()
		cfg.MaxWalkLen = 64 // bound runtime; failures are acceptable, dual leaders are not
		res, err := Run(g, cfg, engine.Options{Seed: seedRaw ^ 0x5a5a})
		if err != nil {
			return false
		}
		return len(res.Leaders) <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestStageScheduleRespected: no up/down message should be processed for a
// tree of a *newer* phase than the sender knew — stale drops exist but must
// be a tiny fraction of traffic with the default schedule.
func TestStaleDropsAreRare(t *testing.T) {
	g, err := graph.RandomRegular(64, 6, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, DefaultConfig(), engine.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Messages == 0 {
		t.Fatal("no traffic")
	}
	frac := float64(res.StaleDrops) / float64(res.Metrics.Messages)
	if frac > 0.02 {
		t.Fatalf("stale drops %.3f%% of traffic — schedule too tight", 100*frac)
	}
}

// TestBudgetObserverConsistency: with a budget, the observer must see
// exactly the accepted messages (drops invisible).
type countObs struct{ n int64 }

func (c *countObs) OnSend(round int, from, fromPort, to, toPort int, m sim.Message) { c.n++ }

func TestBudgetObserverConsistency(t *testing.T) {
	g, err := graph.Clique(24, nil)
	if err != nil {
		t.Fatal(err)
	}
	obs := &countObs{}
	res, err := Run(g, DefaultConfig(), engine.Options{Seed: 5, Budget: 500, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Messages != 500 {
		t.Fatalf("messages = %d, want exactly the budget", res.Metrics.Messages)
	}
	if obs.n != res.Metrics.Messages {
		t.Fatalf("observer saw %d, metrics %d", obs.n, res.Metrics.Messages)
	}
	if res.Metrics.Dropped == 0 {
		t.Fatal("expected drops")
	}
}

// TestForcedIDCollision: two contenders forced to the same id must not
// panic or elect two leaders (the w.h.p. uniqueness footnote made hostile).
func TestForcedIDCollision(t *testing.T) {
	g, err := graph.Clique(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lowThreshold()
	cfg.ForcedContenders = []int{2, 7}
	cfg.ForcedIDs = map[int]protocol.ID{2: 500, 7: 500}
	res, err := Run(g, cfg, engine.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// With colliding ids the walk trees merge; the outcome may be 0, 1 or
	// even 2 flags, but the run must terminate cleanly. Document by bound.
	if len(res.Leaders) > 2 {
		t.Fatalf("leaders = %v", res.Leaders)
	}
}

// TestFixedModeSkipsGuessing: FixedWalkLen must produce exactly one phase
// and never mark contenders failed.
func TestFixedModeSkipsGuessing(t *testing.T) {
	g, err := graph.Hypercube(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.FixedWalkLen = 20
	res, err := Run(g, cfg, engine.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.PhasesUsed > 1 {
		t.Fatalf("phases = %d", res.PhasesUsed)
	}
	for _, v := range res.Contenders {
		if res.FinalTu[v] != 20 {
			t.Fatalf("contender %d tu = %d, want 20", v, res.FinalTu[v])
		}
	}
	if len(res.Failed) != 0 {
		t.Fatal("fixed mode cannot fail the stop rule")
	}
}
