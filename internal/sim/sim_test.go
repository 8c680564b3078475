package sim

import (
	"errors"
	"fmt"
	"testing"

	"wcle/internal/graph"
)

// testMsg is a trivial payload used by the engine tests.
type testMsg struct {
	val  int
	bits int
	kind string
}

func (m testMsg) Bits() int    { return m.bits }
func (m testMsg) Kind() string { return m.kind }

var _ Message = testMsg{}

// floodProc floods a token: node 0 starts, everyone forwards once.
type floodProc struct {
	node     int
	seen     bool
	seenAt   int
	started  bool
	isSource bool
}

func (p *floodProc) Step(ctx *Context, inbox []Envelope) error {
	if p.isSource && !p.started {
		p.started = true
		p.seen = true
		p.seenAt = ctx.Round()
		for port := 0; port < ctx.Degree(); port++ {
			if err := ctx.Send(port, testMsg{val: 1, bits: 8, kind: "flood"}); err != nil {
				return err
			}
		}
		return nil
	}
	if len(inbox) > 0 && !p.seen {
		p.seen = true
		p.seenAt = ctx.Round()
		for port := 0; port < ctx.Degree(); port++ {
			if err := ctx.Send(port, testMsg{val: 1, bits: 8, kind: "flood"}); err != nil {
				return err
			}
		}
	}
	return nil
}

func floodProcs(n int) []Process {
	procs := make([]Process, n)
	for i := range procs {
		procs[i] = &floodProc{node: i, isSource: i == 0}
	}
	return procs
}

func TestFloodReachesAllAtBFSDistance(t *testing.T) {
	g, err := graph.Hypercube(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	procs := floodProcs(g.N())
	m, err := Run(Config{Graph: g, Seed: 1}, procs)
	if err != nil {
		t.Fatal(err)
	}
	dist := graph.BFSDist(g, 0)
	for v, p := range procs {
		fp := p.(*floodProc)
		if !fp.seen {
			t.Fatalf("node %d never informed", v)
		}
		if fp.seenAt != dist[v] {
			t.Fatalf("node %d informed at %d, BFS distance %d", v, fp.seenAt, dist[v])
		}
	}
	// Every node sends on every port exactly once: messages = sum degrees.
	if m.Messages != int64(2*g.M()) {
		t.Fatalf("messages = %d, want %d", m.Messages, 2*g.M())
	}
	if m.Bits != 8*m.Messages {
		t.Fatalf("bits = %d, want %d", m.Bits, 8*m.Messages)
	}
	if m.ByKind["flood"] != m.Messages {
		t.Fatalf("ByKind accounting wrong: %v", m.ByKind)
	}
	if m.FinalRound < graph.Diameter(g) {
		t.Fatalf("final round %d below diameter", m.FinalRound)
	}
}

func TestCongestDoubleSendRejected(t *testing.T) {
	g, err := graph.Clique(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	procs := []Process{
		processFunc(func(ctx *Context, inbox []Envelope) error {
			if ctx.Round() != 0 {
				return nil
			}
			if err := ctx.Send(0, testMsg{bits: 1, kind: "x"}); err != nil {
				return err
			}
			return ctx.Send(0, testMsg{bits: 1, kind: "x"})
		}),
		nopProc{}, nopProc{},
	}
	_, err = Run(Config{Graph: g, Seed: 1}, procs)
	if !errors.Is(err, ErrCongest) {
		t.Fatalf("want ErrCongest, got %v", err)
	}
}

type nopProc struct{}

func (nopProc) Step(*Context, []Envelope) error { return nil }

type processFunc func(*Context, []Envelope) error

func (f processFunc) Step(ctx *Context, inbox []Envelope) error { return f(ctx, inbox) }

func TestCongestBitCap(t *testing.T) {
	g, err := graph.Clique(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	procs := []Process{
		processFunc(func(ctx *Context, inbox []Envelope) error {
			if ctx.Round() == 0 {
				return ctx.Send(0, testMsg{bits: 100, kind: "big"})
			}
			return nil
		}),
		nopProc{},
	}
	_, err = Run(Config{Graph: g, Seed: 1, MaxMessageBits: 64}, procs)
	if !errors.Is(err, ErrCongest) {
		t.Fatalf("want ErrCongest for oversized message, got %v", err)
	}
	// Same message under a roomier cap is fine.
	procs[0] = processFunc(func(ctx *Context, inbox []Envelope) error {
		if ctx.Round() == 0 {
			return ctx.Send(0, testMsg{bits: 100, kind: "big"})
		}
		return nil
	})
	if _, err := Run(Config{Graph: g, Seed: 1, MaxMessageBits: 128}, procs); err != nil {
		t.Fatalf("within cap should pass: %v", err)
	}
}

func TestInvalidPort(t *testing.T) {
	g, err := graph.Clique(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	procs := []Process{
		processFunc(func(ctx *Context, inbox []Envelope) error {
			return ctx.Send(5, testMsg{bits: 1, kind: "x"})
		}),
		nopProc{},
	}
	if _, err := Run(Config{Graph: g, Seed: 1}, procs); !errors.Is(err, ErrCongest) {
		t.Fatalf("want ErrCongest, got %v", err)
	}
}

// pingPong bounces a counter k times between two nodes.
type pingPong struct {
	limit int
	count int
	start bool
}

func (p *pingPong) Step(ctx *Context, inbox []Envelope) error {
	if p.start && ctx.Round() == 0 {
		return ctx.Send(0, testMsg{val: 1, bits: 4, kind: "ping"})
	}
	for _, env := range inbox {
		v := env.Payload.(testMsg).val
		p.count = v
		if v < p.limit {
			return ctx.Send(env.Port, testMsg{val: v + 1, bits: 4, kind: "ping"})
		}
	}
	return nil
}

func TestPingPongRounds(t *testing.T) {
	g, err := graph.Clique(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := &pingPong{limit: 10, start: true}
	b := &pingPong{limit: 10}
	m, err := Run(Config{Graph: g, Seed: 1}, []Process{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if m.Messages != 10 {
		t.Fatalf("messages = %d, want 10", m.Messages)
	}
	if m.FinalRound != 10 {
		t.Fatalf("final round = %d, want 10", m.FinalRound)
	}
	if a.count+b.count != 10+9 {
		t.Fatalf("counters: a=%d b=%d", a.count, b.count)
	}
}

// wakeProc verifies idle-round skipping: wakes itself far in the future.
type wakeProc struct {
	stepsAt []int
}

func (p *wakeProc) Step(ctx *Context, inbox []Envelope) error {
	p.stepsAt = append(p.stepsAt, ctx.Round())
	if ctx.Round() == 0 {
		ctx.WakeAt(1_000_000)
	}
	return nil
}

func TestIdleRoundSkipping(t *testing.T) {
	g, err := graph.Clique(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := &wakeProc{}
	m, err := Run(Config{Graph: g, Seed: 1}, []Process{p, nopProc{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stepsAt) != 2 || p.stepsAt[1] != 1_000_000 {
		t.Fatalf("steps at %v", p.stepsAt)
	}
	// Only two busy rounds despite a million simulated rounds.
	if m.BusyRounds != 2 {
		t.Fatalf("busy rounds = %d, want 2", m.BusyRounds)
	}
	if m.FinalRound != 1_000_000 {
		t.Fatalf("final round = %d", m.FinalRound)
	}
}

func TestMaxRounds(t *testing.T) {
	g, err := graph.Clique(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Endless ping-pong.
	p := processFunc(func(ctx *Context, inbox []Envelope) error {
		if ctx.Round() == 0 && ctx.Node() == 0 {
			return ctx.Send(0, testMsg{bits: 1, kind: "p"})
		}
		for _, env := range inbox {
			if err := ctx.Send(env.Port, testMsg{bits: 1, kind: "p"}); err != nil {
				return err
			}
		}
		return nil
	})
	_, err = Run(Config{Graph: g, Seed: 1, MaxRounds: 100}, []Process{p, p})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("want ErrMaxRounds, got %v", err)
	}
}

func TestMessageBudgetDrops(t *testing.T) {
	g, err := graph.Clique(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	procs := floodProcs(g.N())
	m, err := Run(Config{Graph: g, Seed: 1, MessageBudget: 5}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Messages != 5 {
		t.Fatalf("messages = %d, want exactly budget 5", m.Messages)
	}
	if m.Dropped == 0 {
		t.Fatal("expected drops beyond budget")
	}
}

// Determinism: identical seeds give identical metrics; different seeds give
// (eventually) different random behavior.
type randomWalker struct {
	hops  int
	limit int
	trail []int
}

func (p *randomWalker) Step(ctx *Context, inbox []Envelope) error {
	send := func() error {
		port := ctx.Rand().Intn(ctx.Degree())
		return ctx.Send(port, testMsg{bits: 4, kind: "walk"})
	}
	if ctx.Round() == 0 && ctx.Node() == 0 {
		return send()
	}
	for range inbox {
		p.hops++
		p.trail = append(p.trail, ctx.Node())
		if p.hops+ctx.Round() < p.limit {
			return send()
		}
	}
	return nil
}

func trailOf(procs []Process) []int {
	var out []int
	for _, p := range procs {
		out = append(out, p.(*randomWalker).trail...)
	}
	return out
}

func TestDeterministicReplay(t *testing.T) {
	g, err := graph.Hypercube(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() []Process {
		procs := make([]Process, g.N())
		for i := range procs {
			procs[i] = &randomWalker{limit: 50}
		}
		return procs
	}
	p1, p2, p3 := mk(), mk(), mk()
	m1, err := Run(Config{Graph: g, Seed: 77}, p1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Run(Config{Graph: g, Seed: 77}, p2)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := Run(Config{Graph: g, Seed: 78}, p3)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Messages != m2.Messages || m1.FinalRound != m2.FinalRound {
		t.Fatalf("same seed diverged: %+v vs %+v", m1, m2)
	}
	t1, t2, t3 := trailOf(p1), trailOf(p2), trailOf(p3)
	if fmt.Sprint(t1) != fmt.Sprint(t2) {
		t.Fatal("same seed produced different trails")
	}
	if fmt.Sprint(t1) == fmt.Sprint(t3) && m1.Messages == m3.Messages {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

// Runs executed concurrently, as MultiRunner shards on two workers, match
// the same run executed alone: metrics and process trajectories alike.
func TestConcurrentMatchesSequential(t *testing.T) {
	g, err := graph.Torus2D(4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() []Process {
		procs := make([]Process, g.N())
		for i := range procs {
			procs[i] = &randomWalker{limit: 80}
		}
		return procs
	}
	seq := mk()
	ms, err := Run(Config{Graph: g, Seed: 5}, seq)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 4
	par := make([][]Process, runs)
	for i := range par {
		par[i] = mk()
	}
	mr := &MultiRunner{Workers: 2}
	batch, _, err := mr.RunBatch(runs, func(i int) (Metrics, error) {
		return Run(Config{Graph: g, Seed: 5}, par[i])
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, mp := range batch {
		if ms.Messages != mp.Messages || ms.FinalRound != mp.FinalRound || ms.Deliveries != mp.Deliveries {
			t.Fatalf("run %d diverges: seq %+v vs concurrent %+v", i, ms, mp)
		}
		if fmt.Sprint(trailOf(seq)) != fmt.Sprint(trailOf(par[i])) {
			t.Fatalf("run %d produced a different trail", i)
		}
	}
}

type recordingObserver struct {
	sends int
	kinds map[string]int
}

func (o *recordingObserver) OnSend(round int, from, fromPort, to, toPort int, m Message) {
	o.sends++
	if o.kinds == nil {
		o.kinds = map[string]int{}
	}
	o.kinds[m.Kind()]++
}

func TestObserverSeesEverySend(t *testing.T) {
	g, err := graph.Clique(6, nil)
	if err != nil {
		t.Fatal(err)
	}
	obs := &recordingObserver{}
	m, err := Run(Config{Graph: g, Seed: 1, Observer: obs}, floodProcs(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	if int64(obs.sends) != m.Messages {
		t.Fatalf("observer saw %d sends, metrics %d", obs.sends, m.Messages)
	}
	if obs.kinds["flood"] != obs.sends {
		t.Fatalf("kinds: %v", obs.kinds)
	}
}

func TestRunnerValidation(t *testing.T) {
	if _, err := NewRunner(Config{}, nil); err == nil {
		t.Fatal("nil graph should fail")
	}
	g, err := graph.Clique(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRunner(Config{Graph: g}, make([]Process, 2)); err == nil {
		t.Fatal("process count mismatch should fail")
	}
}

func TestRunnerResume(t *testing.T) {
	g, err := graph.Clique(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	procs := floodProcs(g.N())
	r, err := NewRunner(Config{Graph: g, Seed: 1}, procs)
	if err != nil {
		t.Fatal(err)
	}
	r.WakeAll(0)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if !r.Quiet() {
		t.Fatal("should be quiet after Run")
	}
	first := r.Metrics().Messages
	// Resume: wake node 1; flood already seen, so nothing new happens.
	r.Wake(1, r.Round()+1)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Metrics().Messages != first {
		t.Fatal("resume should not send again")
	}
}

func TestDeriveSeedSpread(t *testing.T) {
	seen := map[int64]bool{}
	for i := uint64(0); i < 1000; i++ {
		s := DeriveSeed(42, i)
		if seen[s] {
			t.Fatalf("seed collision at idx %d", i)
		}
		seen[s] = true
	}
	if DeriveSeed(42, 7) != DeriveSeed(42, 7) {
		t.Fatal("DeriveSeed not deterministic")
	}
	if DeriveSeed(42, 7) == DeriveSeed(43, 7) {
		t.Fatal("master seed ignored")
	}
}

func TestEnvelopePortIsReceiverSide(t *testing.T) {
	// Build an asymmetric port graph: a path 0-1-2. Node 1 has two ports.
	b := graph.NewBuilder(3)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build("p3", nil)
	if err != nil {
		t.Fatal(err)
	}
	gotPort := -1
	procs := []Process{
		processFunc(func(ctx *Context, inbox []Envelope) error {
			if ctx.Round() == 0 {
				return ctx.Send(0, testMsg{bits: 1, kind: "x"})
			}
			return nil
		}),
		processFunc(func(ctx *Context, inbox []Envelope) error {
			for _, env := range inbox {
				gotPort = env.Port
			}
			return nil
		}),
		nopProc{},
	}
	if _, err := Run(Config{Graph: g, Seed: 1}, procs); err != nil {
		t.Fatal(err)
	}
	want := g.PortTo(1, 0)
	if gotPort != want {
		t.Fatalf("received on port %d, want %d", gotPort, want)
	}
}

// LeanMetrics must drop per-kind accounting while keeping every other
// counter identical to a regular run.
func TestLeanMetricsSkipsByKind(t *testing.T) {
	g, err := graph.Hypercube(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(Config{Graph: g, Seed: 1}, floodProcs(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	lean, err := Run(Config{Graph: g, Seed: 1, LeanMetrics: true}, floodProcs(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	if len(lean.ByKind) != 0 {
		t.Fatalf("lean run recorded kinds: %v", lean.ByKind)
	}
	if lean.Messages != full.Messages || lean.Bits != full.Bits ||
		lean.FinalRound != full.FinalRound || lean.Deliveries != full.Deliveries {
		t.Fatalf("lean metrics diverged: %+v vs %+v", lean, full)
	}
}
