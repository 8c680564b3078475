package sim

import (
	"errors"
	"testing"
	"testing/quick"

	"wcle/internal/graph"
)

// gossipAll floods counters until a hop budget is exhausted; used to stress
// the engine with all-to-all traffic.
type gossipAll struct {
	budget int
	sent   int
}

func (p *gossipAll) Step(ctx *Context, inbox []Envelope) error {
	if ctx.Round() >= p.budget {
		return nil
	}
	for port := 0; port < ctx.Degree(); port++ {
		if err := ctx.Send(port, testMsg{val: ctx.Round(), bits: 8, kind: "g"}); err != nil {
			return err
		}
		p.sent++
	}
	ctx.WakeAt(ctx.Round() + 1)
	return nil
}

func TestEngineStressAllToAll(t *testing.T) {
	g, err := graph.Clique(32, nil)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 50
	procs := make([]Process, g.N())
	var nodes []*gossipAll
	for i := range procs {
		nd := &gossipAll{budget: rounds}
		nodes = append(nodes, nd)
		procs[i] = nd
	}
	m, err := Run(Config{Graph: g, Seed: 1}, procs)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(rounds * 2 * g.M()) // every edge direction, every round
	if m.Messages != want {
		t.Fatalf("messages = %d, want %d", m.Messages, want)
	}
	if m.Deliveries != want {
		t.Fatalf("deliveries = %d, want %d", m.Deliveries, want)
	}
	for i, nd := range nodes {
		if nd.sent != rounds*g.Degree(i) {
			t.Fatalf("node %d sent %d", i, nd.sent)
		}
	}
}

func TestWakeAtClampsToFuture(t *testing.T) {
	g, err := graph.Clique(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rounds []int
	p := processFunc(func(ctx *Context, inbox []Envelope) error {
		rounds = append(rounds, ctx.Round())
		if len(rounds) < 3 {
			ctx.WakeAt(ctx.Round() - 5) // past: must clamp to next round
		}
		return nil
	})
	if _, err := Run(Config{Graph: g, Seed: 1}, []Process{p, nopProc{}}); err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 3 || rounds[1] != 1 || rounds[2] != 2 {
		t.Fatalf("rounds = %v, want [0 1 2]", rounds)
	}
}

func TestMetricsCopyIsolated(t *testing.T) {
	g, err := graph.Clique(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{Graph: g, Seed: 1}, floodProcs(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	r.WakeAll(0)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	m1 := r.Metrics()
	m1.ByKind["flood"] = -999
	m2 := r.Metrics()
	if m2.ByKind["flood"] == -999 {
		t.Fatal("Metrics() must return an isolated copy")
	}
}

func TestStepErrorAborts(t *testing.T) {
	g, err := graph.Clique(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	p := processFunc(func(ctx *Context, inbox []Envelope) error { return boom })
	_, err = Run(Config{Graph: g, Seed: 1}, []Process{p, nopProc{}})
	if !errors.Is(err, boom) {
		t.Fatalf("want wrapped boom, got %v", err)
	}
}

// Several nodes step in the same round and one after the first fails: its
// error still aborts the run.
func TestStepErrorAbortsConcurrent(t *testing.T) {
	g, err := graph.Clique(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	procs := []Process{
		processFunc(func(ctx *Context, inbox []Envelope) error { return nil }),
		processFunc(func(ctx *Context, inbox []Envelope) error { return boom }),
		nopProc{}, nopProc{},
	}
	_, err = Run(Config{Graph: g, Seed: 1}, procs)
	if !errors.Is(err, boom) {
		t.Fatalf("want wrapped boom, got %v", err)
	}
}

// Property: for any seed, flood on a random regular graph informs everyone
// with exactly 2m messages, and a MultiRunner shard runs it identically.
func TestEnginesAgreeProperty(t *testing.T) {
	prop := func(seed int64) bool {
		g, err := graph.RandomRegular(24, 4, NewRand(seed))
		if err != nil {
			return false
		}
		seq, err := Run(Config{Graph: g, Seed: seed}, floodProcs(g.N()))
		if err != nil {
			return false
		}
		mr := &MultiRunner{Workers: 1}
		batch, _, err := mr.RunBatch(1, func(int) (Metrics, error) {
			return Run(Config{Graph: g, Seed: seed}, floodProcs(g.N()))
		})
		if err != nil {
			return false
		}
		return seq.Messages == batch[0].Messages &&
			seq.FinalRound == batch[0].FinalRound &&
			seq.Messages == int64(2*g.M())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestObserverOrderDeterministic(t *testing.T) {
	g, err := graph.Hypercube(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []int {
		var order []int
		obs := observerFunc(func(round int, from, fromPort, to, toPort int, m Message) {
			order = append(order, round*10000+from*100+to)
		})
		if _, err := Run(Config{Graph: g, Seed: 3, Observer: obs}, floodProcs(g.N())); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("observer event counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("observer order diverges at %d", i)
		}
	}
}

type observerFunc func(round int, from, fromPort, to, toPort int, m Message)

func (f observerFunc) OnSend(round int, from, fromPort, to, toPort int, m Message) {
	f(round, from, fromPort, to, toPort, m)
}

func TestZeroBudgetMeansUnlimited(t *testing.T) {
	g, err := graph.Clique(6, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(Config{Graph: g, Seed: 1, MessageBudget: 0}, floodProcs(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	if m.Dropped != 0 || m.Messages != int64(2*g.M()) {
		t.Fatalf("budget 0 should be unlimited: %+v", m)
	}
}
