package core

import (
	"testing"

	"wcle/internal/engine"
	"wcle/internal/graph"
)

// TestSmokeClique is the first end-to-end sanity check: a small clique with
// default parameters must elect exactly one leader.
func TestSmokeClique(t *testing.T) {
	g, err := graph.Clique(32, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, DefaultConfig(), engine.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("contenders=%d stopped=%d failed=%d leaders=%d phases=%d rounds=%d msgs=%d byKind=%v",
		len(res.Contenders), len(res.Stopped), len(res.Failed), len(res.Leaders),
		res.PhasesUsed, res.Rounds, res.Metrics.Messages, res.Metrics.ByKind)
	if len(res.Leaders) != 1 {
		t.Fatalf("leaders = %v, want exactly one", res.Leaders)
	}
}
