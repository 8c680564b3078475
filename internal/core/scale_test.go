package core

import (
	"math/rand"
	"testing"
	"time"

	"wcle/internal/engine"
	"wcle/internal/graph"
)

// TestSmokeScale gauges runtime and message counts on an expander at
// increasing sizes (informational; run with -v).
func TestSmokeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke test skipped in -short mode")
	}
	for _, n := range []int{128, 256, 512} {
		g, err := graph.RandomRegular(n, 8, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, err := Run(g, DefaultConfig(), engine.Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("n=%d: %v, contenders=%d stopped=%d suppressed=%d failed=%d leaders=%d phases=%d tu* rounds=%d msgs=%d stale=%d",
			n, time.Since(start), len(res.Contenders), len(res.Stopped), len(res.Suppressed),
			len(res.Failed), len(res.Leaders), res.PhasesUsed, res.Rounds, res.Metrics.Messages, res.StaleDrops)
		if len(res.Leaders) > 1 {
			t.Fatalf("n=%d: multiple leaders %v", n, res.Leaders)
		}
	}
}
