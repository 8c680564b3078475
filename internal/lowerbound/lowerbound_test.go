package lowerbound

import (
	"math"
	"math/rand"
	"testing"

	"wcle/internal/core"
	"wcle/internal/engine"
	"wcle/internal/graph"
)

func testLB(t *testing.T, n int, alpha float64, seed int64) *graph.LowerBound {
	t.Helper()
	lb, err := graph.NewLowerBound(n, alpha, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return lb
}

type fakeMsg struct{}

func (fakeMsg) Bits() int    { return 8 }
func (fakeMsg) Kind() string { return "fake" }

func TestCGTrackerClassification(t *testing.T) {
	lb := testLB(t, 512, 1.0/196, 3)
	tr := NewCGTracker(lb)
	// Synthetic events: two intra-clique messages in clique 0, then an
	// inter-clique message from clique 0 to one of its super neighbors.
	c0 := lb.Cliques[0]
	tr.OnSend(1, c0[0], 0, c0[1], 0, fakeMsg{})
	tr.OnSend(2, c0[1], 0, c0[2], 0, fakeMsg{})
	if tr.InterMessages != 0 || tr.TotalMessages != 2 {
		t.Fatalf("intra counting wrong: %+v", tr)
	}
	// Find a real inter-clique edge from clique 0.
	var from, to int
	found := false
	for _, e := range lb.Edges() {
		if lb.InterClique(e.U, e.V) && lb.CliqueOf[e.U] == 0 {
			from, to = e.U, e.V
			found = true
			break
		}
		if lb.InterClique(e.U, e.V) && lb.CliqueOf[e.V] == 0 {
			from, to = e.V, e.U
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no inter-clique edge from clique 0")
	}
	tr.OnSend(5, from, 0, to, 0, fakeMsg{})
	if tr.InterMessages != 1 || tr.CGEdges() != 1 {
		t.Fatalf("inter counting wrong: inter=%d edges=%d", tr.InterMessages, tr.CGEdges())
	}
	if tr.MsgsBeforeInterSend[0] != 2 {
		t.Fatalf("msgs before inter = %d, want 2", tr.MsgsBeforeInterSend[0])
	}
	if !tr.Spontaneous(0) {
		t.Fatal("clique 0 should be spontaneous (sent before receiving)")
	}
	other := lb.CliqueOf[to]
	if tr.Spontaneous(other) {
		t.Fatal("receiver clique should not be spontaneous")
	}
	// Components: {0, other} merged, everything else singleton.
	comps := tr.Components()
	if len(comps) != lb.NumCliques-1 {
		t.Fatalf("components = %d, want %d", len(comps), lb.NumCliques-1)
	}
	if !tr.DisjHolds() {
		t.Fatal("Disj should hold for a single first contact")
	}
}

func TestCGTrackerDisjViolation(t *testing.T) {
	lb := testLB(t, 512, 1.0/196, 4)
	tr := NewCGTracker(lb)
	// Two cliques that both spontaneously contact each other violate Disj
	// (two spontaneous cliques in one component).
	var e graph.Edge
	for _, cand := range lb.Edges() {
		if lb.InterClique(cand.U, cand.V) {
			e = cand
			break
		}
	}
	tr.OnSend(1, e.U, 0, e.V, 0, fakeMsg{})
	tr.OnSend(1, e.V, 0, e.U, 0, fakeMsg{})
	if tr.DisjHolds() {
		t.Fatal("Disj should be violated by mutual spontaneous contact")
	}
}

func TestProbeExpectation(t *testing.T) {
	// Lemma 18 shape: with P total ports and 4 inter ports, the expected
	// number of messages before crossing is (P+1)/5 ~ Theta(P) = Theta(s^2)
	// = Theta(n^{2 eps}) = Theta(1/alpha).
	rng := rand.New(rand.NewSource(8))
	totalPorts := 30 * 29 // s = 30
	trials := 4000
	var sum float64
	for i := 0; i < trials; i++ {
		v := ProbeFirstInterClique(totalPorts, 4, rng)
		if v < 1 || v > totalPorts-4+1 {
			t.Fatalf("probe count %d out of range", v)
		}
		sum += float64(v)
	}
	mean := sum / float64(trials)
	want := float64(totalPorts+1) / 5
	if math.Abs(mean-want)/want > 0.08 {
		t.Fatalf("mean = %v, want ~%v", mean, want)
	}
}

func TestProbeDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if ProbeFirstInterClique(10, 0, rng) != 0 {
		t.Fatal("no inter ports should return 0")
	}
	if ProbeFirstInterClique(3, 4, rng) != 0 {
		t.Fatal("inter > total should return 0")
	}
	if got := ProbeFirstInterClique(4, 4, rng); got != 1 {
		t.Fatalf("all-inter should hit on first message, got %d", got)
	}
}

func TestBudgetedElectionOnLowerBoundGraph(t *testing.T) {
	// Lemma 19/20 shape: under a small message budget the CG stays sparse,
	// Disj holds, and the election cannot succeed globally.
	lb := testLB(t, 512, 1.0/196, 5)
	tr := NewCGTracker(lb)
	cfg := core.DefaultConfig()
	cfg.MaxWalkLen = 8
	res, err := core.Run(lb.Graph, cfg, engine.Options{
		Seed:     2,
		Budget:   2000,
		Observer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.TotalMessages != res.Metrics.Messages {
		t.Fatalf("tracker saw %d, metrics %d", tr.TotalMessages, res.Metrics.Messages)
	}
	// s^2 ~ 1/alpha = 196 intra-edges-ish per clique; 2000 messages across
	// 24+ cliques discover few inter-clique edges.
	if tr.CGEdges() > lb.NumCliques {
		t.Fatalf("CG edges = %d, too dense for the budget", tr.CGEdges())
	}
	counts := tr.ComponentLeaderCounts(res.Leaders)
	var total int
	for _, c := range counts {
		total += c
	}
	if total != len(res.Leaders) {
		t.Fatalf("component leader counts %v don't add up to %d", counts, len(res.Leaders))
	}
}

func TestBridgeTrackerOnDumbbell(t *testing.T) {
	db, err := graph.NewDumbbell(24, 4, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	tr := NewBridgeTracker(db)
	cfg := core.DefaultConfig()
	cfg.AssumedN = db.Half // nodes believe the network is one half
	cfg.MaxWalkLen = 16
	res, err := core.Run(db.Graph, cfg, engine.Options{Seed: 3, Observer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if tr.TotalMessages != res.Metrics.Messages {
		t.Fatalf("tracker saw %d, metrics %d", tr.TotalMessages, res.Metrics.Messages)
	}
	if tr.Crossings > 0 && tr.FirstCrossRound < 0 {
		t.Fatal("first crossing round not recorded")
	}
	if tr.Crossings == 0 && tr.MsgsBeforeCross != 0 {
		t.Fatal("inconsistent crossing bookkeeping")
	}
	t.Logf("dumbbell assumed-n run: leaders=%d crossings=%d firstCross=%d msgs=%d",
		len(res.Leaders), tr.Crossings, tr.FirstCrossRound, res.Metrics.Messages)
}

// TestDumbbellTwoLeadersWithWrongN is the Theorem 28 headline: on a
// dumbbell of two cliques, when nodes believe n is one half's size and no
// information crosses the bridges before the first decision, the two halves
// elect independently — two leaders. We pin contenders away from the four
// bridge endpoints so phase-0 walks (length 1) cannot cross, which realizes
// the indistinguishability argument deterministically.
func TestDumbbellTwoLeadersWithWrongN(t *testing.T) {
	trials := 3
	for seed := int64(0); seed < int64(trials); seed++ {
		db, err := graph.NewDumbbellCliques(24, rand.New(rand.NewSource(100+seed)))
		if err != nil {
			t.Fatal(err)
		}
		var contenders []int
		bridge := map[int]bool{
			db.Bridges[0].U: true, db.Bridges[0].V: true,
			db.Bridges[1].U: true, db.Bridges[1].V: true,
		}
		for v := 0; v < db.N(); v++ {
			if !bridge[v] {
				contenders = append(contenders, v)
			}
		}
		cfg := core.DefaultConfig()
		cfg.AssumedN = db.Half
		cfg.ForcedContenders = contenders
		// Length-1 walks satisfy intersection on a clique but not
		// distinctness (half the lazy tokens rest on their origin); waiving
		// distinctness makes every contender stop in phase 0, whose
		// depth-1 trees cannot reach across a bridge.
		cfg.DisableDistinctness = true
		tr := NewBridgeTracker(db)
		res, err := core.Run(db.Graph, cfg, engine.Options{Seed: seed, Observer: tr})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Leaders) != 2 {
			t.Fatalf("seed %d: leaders = %v (crossings=%d), want one per side",
				seed, res.Leaders, tr.Crossings)
		}
		sides := map[int]bool{}
		for _, l := range res.Leaders {
			sides[db.SideOf[l]] = true
		}
		if len(sides) != 2 {
			t.Fatalf("seed %d: both leaders on the same side: %v", seed, res.Leaders)
		}
	}
}
