package engine_test

import (
	"math"
	"math/rand"
	"testing"

	"wcle/internal/engine"
	"wcle/internal/graph"
)

// pushPull runs the pushpull protocol and folds its report.
func pushPull(g *graph.Graph, source int, rumor uint64, seed int64, horizon int, pushOnly bool) (*engine.PushPullResult, error) {
	p, err := engine.New(engine.PushPull, engine.Config{Source: source, Rumor: rumor, Horizon: horizon, PushOnly: pushOnly})
	if err != nil {
		return nil, err
	}
	res, err := engine.Run(p, g, engine.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	return engine.FoldPushPull(g.N(), res), nil
}

// bfsTree runs the bfstree protocol and folds its report.
func bfsTree(g *graph.Graph, root int, seed int64) (*engine.TreeResult, error) {
	p, err := engine.New(engine.BFSTree, engine.Config{Root: root})
	if err != nil {
		return nil, err
	}
	res, err := engine.Run(p, g, engine.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	return engine.FoldBFSTree(g, res), nil
}

func TestPushPullInformsAllOnClique(t *testing.T) {
	g, err := graph.Clique(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	horizon := 8 * int(math.Ceil(math.Log2(64)))
	res, err := pushPull(g, 0, 777, 1, horizon, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatalf("only %d/%d informed", res.Informed, g.N())
	}
	// Completion in O(log n) rounds on a clique (generous factor 4).
	if res.CompletionRound > 4*int(math.Ceil(math.Log2(64))) {
		t.Fatalf("completion round %d too slow for a clique", res.CompletionRound)
	}
}

func TestPushPullCompletionOrdering(t *testing.T) {
	// Push-pull completes much faster on an expander than on a cycle at
	// equal n (conductance dependence of [22]/[17]).
	n := 64
	exp, err := graph.RandomRegular(n, 6, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	cyc, err := graph.Cycle(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	horizon := 6 * n
	re, err := pushPull(exp, 0, 5, 3, horizon, false)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := pushPull(cyc, 0, 5, 3, horizon, false)
	if err != nil {
		t.Fatal(err)
	}
	if !re.AllInformed || !rc.AllInformed {
		t.Fatalf("coverage incomplete: expander=%v cycle=%v", re.AllInformed, rc.AllInformed)
	}
	if re.CompletionRound >= rc.CompletionRound {
		t.Fatalf("expander completion %d should beat cycle %d", re.CompletionRound, rc.CompletionRound)
	}
}

func TestPushOnlySlowerOrEqualCoverage(t *testing.T) {
	g, err := graph.RandomRegular(64, 6, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	horizon := 50
	pp, err := pushPull(g, 0, 5, 9, horizon, false)
	if err != nil {
		t.Fatal(err)
	}
	po, err := pushPull(g, 0, 5, 9, horizon, true)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Informed < po.Informed {
		t.Fatalf("push-pull %d informed < push-only %d", pp.Informed, po.Informed)
	}
	// Push-only must send strictly fewer messages (uninformed are silent).
	if po.Metrics.Messages >= pp.Metrics.Messages {
		t.Fatalf("push-only messages %d >= push-pull %d", po.Metrics.Messages, pp.Metrics.Messages)
	}
}

func TestPushPullMessageBudgetShape(t *testing.T) {
	// Push-pull sends at most ~2 messages per node per round.
	g, err := graph.Clique(32, nil)
	if err != nil {
		t.Fatal(err)
	}
	horizon := 20
	res, err := pushPull(g, 0, 5, 5, horizon, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Messages > int64(2*g.N()*horizon) {
		t.Fatalf("messages = %d exceed 2*n*horizon = %d", res.Metrics.Messages, 2*g.N()*horizon)
	}
	if res.Metrics.Messages < int64(horizon) {
		t.Fatalf("messages = %d suspiciously low", res.Metrics.Messages)
	}
}

func TestPushPullValidation(t *testing.T) {
	g, err := graph.Clique(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, source := range []int{-1, g.N()} {
		if _, err := pushPull(g, source, 5, 1, 10, false); err == nil {
			t.Fatalf("source %d should fail", source)
		}
	}
}

func TestBFSTree(t *testing.T) {
	g, err := graph.Hypercube(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bfsTree(g, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("tree incomplete")
	}
	dist := graph.BFSDist(g, 3)
	for v := range res.Parent {
		if v == 3 {
			if res.Parent[v] != -1 || res.Depth[v] != 0 {
				t.Fatalf("root bookkeeping wrong: parent=%d depth=%d", res.Parent[v], res.Depth[v])
			}
			continue
		}
		if res.Depth[v] != dist[v] {
			t.Fatalf("node %d depth %d != BFS distance %d", v, res.Depth[v], dist[v])
		}
		p := res.Parent[v]
		if p < 0 || !g.HasEdge(v, p) {
			t.Fatalf("node %d parent %d is not a neighbor", v, p)
		}
		if res.Depth[p] != res.Depth[v]-1 {
			t.Fatalf("node %d parent depth %d not one less than %d", v, res.Depth[p], res.Depth[v])
		}
	}
	// Flooding costs Theta(m): every edge carries at least one JOIN in at
	// least one direction, at most two.
	if res.Metrics.Messages < int64(g.M()) || res.Metrics.Messages > int64(2*g.M()) {
		t.Fatalf("messages = %d outside [m, 2m] = [%d, %d]", res.Metrics.Messages, g.M(), 2*g.M())
	}
}

func TestBFSTreeValidation(t *testing.T) {
	g, err := graph.Clique(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bfsTree(g, 9, 1); err == nil {
		t.Fatal("bad root should fail")
	}
}
