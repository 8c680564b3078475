package sim

import (
	"container/heap"
	"fmt"
	"testing"

	"wcle/internal/graph"
	"wcle/internal/obs"
)

// faultCases enumerates one representative plane per fault family (plus
// composition). Each entry builds a fresh plane: planes are stateful per
// run and must not be shared across engines.
var faultCases = []struct {
	name string
	mk   func() FaultPlane
}{
	{"perfect-nil", func() FaultPlane { return nil }},
	{"perfect", func() FaultPlane { return Perfect{} }},
	{"drop", func() FaultPlane { return &Drop{P: 0.2} }},
	{"delay", func() FaultPlane { return &Delay{Max: 3} }},
	{"crash", func() FaultPlane { return &Crash{At: map[int]int{1: 4, 5: 0}} }},
	{"crash-sample", func() FaultPlane { return &CrashSample{Frac: 0.25, Round: 3} }},
	{"partition", func() FaultPlane { return &Partition{Frac: 0.3, From: 1, To: 5} }},
	{"composite", func() FaultPlane { return Compose(&Drop{P: 0.1}, &Delay{Max: 2}) }},
}

// TestEnginesAgreeUnderFaultPlanes is the equivalence contract of the
// refactored delivery plane: for every fault plane, the sequential engine,
// the goroutine-per-node engine, and a MultiRunner shard must produce
// identical metrics and identical process trajectories.
func TestEnginesAgreeUnderFaultPlanes(t *testing.T) {
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
	for _, fc := range faultCases {
		t.Run(fc.name, func(t *testing.T) {
			seqP, concP, multiP := mk(), mk(), mk()
			seq, err := Run(Config{Graph: g, Seed: 9, Fault: fc.mk()}, seqP)
			if err != nil {
				t.Fatal(err)
			}
			conc, err := Run(Config{Graph: g, Seed: 9, Fault: fc.mk(), Concurrent: true}, concP)
			if err != nil {
				t.Fatal(err)
			}
			mr := &MultiRunner{Workers: 1}
			batch, _, err := mr.RunBatch(1, func(int) (Metrics, error) {
				return Run(Config{Graph: g, Seed: 9, Fault: fc.mk()}, multiP)
			})
			if err != nil {
				t.Fatal(err)
			}
			multi := batch[0]
			for name, m := range map[string]Metrics{"concurrent": conc, "multirunner": multi} {
				if m.Messages != seq.Messages || m.Deliveries != seq.Deliveries ||
					m.FaultDrops != seq.FaultDrops || m.Delayed != seq.Delayed ||
					m.FinalRound != seq.FinalRound || m.BusyRounds != seq.BusyRounds {
					t.Fatalf("%s engine diverges under %s:\nseq   %+v\nother %+v", name, fc.name, seq, m)
				}
			}
			if fmt.Sprint(trailOf(seqP)) != fmt.Sprint(trailOf(concP)) ||
				fmt.Sprint(trailOf(seqP)) != fmt.Sprint(trailOf(multiP)) {
				t.Fatalf("engines produced different trails under %s", fc.name)
			}
		})
	}
}

// A full drop plane loses every message: the flood never spreads, but every
// accepted send still counts toward message complexity.
func TestDropPlaneLosesMessages(t *testing.T) {
	g, err := graph.Clique(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	procs := floodProcs(g.N())
	m, err := Run(Config{Graph: g, Seed: 1, Fault: &Drop{P: 1.0}}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Messages != int64(g.Degree(0)) {
		t.Fatalf("messages = %d, want the source's %d sends", m.Messages, g.Degree(0))
	}
	if m.FaultDrops != m.Messages || m.Deliveries != 0 {
		t.Fatalf("all sends must be lost: %+v", m)
	}
	for v := 1; v < g.N(); v++ {
		if procs[v].(*floodProc).seen {
			t.Fatalf("node %d informed despite full drop", v)
		}
	}
}

// A delay plane reorders but never loses: the flood still reaches everyone,
// no earlier than their BFS distance, and every send is delivered.
func TestDelayPlaneDeliversEverything(t *testing.T) {
	g, err := graph.Hypercube(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	procs := floodProcs(g.N())
	m, err := Run(Config{Graph: g, Seed: 3, Fault: &Delay{Max: 4}}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Deliveries != m.Messages {
		t.Fatalf("deliveries %d != messages %d under delay-only plane", m.Deliveries, m.Messages)
	}
	if m.Delayed == 0 {
		t.Fatal("Delay{Max:4} delayed nothing (suspicious)")
	}
	dist := graph.BFSDist(g, 0)
	for v, p := range procs {
		fp := p.(*floodProc)
		if !fp.seen {
			t.Fatalf("node %d never informed under delay-only plane", v)
		}
		if fp.seenAt < dist[v] {
			t.Fatalf("node %d informed at %d, before BFS distance %d", v, fp.seenAt, dist[v])
		}
	}
}

// Crashed nodes neither step nor receive; the rest of the network keeps
// running.
func TestCrashStopsNode(t *testing.T) {
	g, err := graph.Clique(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	procs := floodProcs(g.N())
	m, err := Run(Config{Graph: g, Seed: 1, Fault: &Crash{At: map[int]int{2: 0}}}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if procs[2].(*floodProc).seen {
		t.Fatal("crashed node was stepped")
	}
	for _, v := range []int{1, 3} {
		if !procs[v].(*floodProc).seen {
			t.Fatalf("healthy node %d not informed", v)
		}
	}
	// The source's send to node 2 (and the other survivors' forwards to
	// it) are lost at delivery.
	if m.FaultDrops != 3 {
		t.Fatalf("fault drops = %d, want 3 (one per neighbor of the dead node)", m.FaultDrops)
	}
}

// CrashSample kills the same nodes for the same seed, and different ones
// for a different seed (w.h.p. for a quarter of a 64-clique).
func TestCrashSampleSeedDeterministic(t *testing.T) {
	g, err := graph.Clique(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) (Metrics, []bool) {
		procs := floodProcs(g.N())
		m, err := Run(Config{Graph: g, Seed: seed, Fault: &CrashSample{Frac: 0.25, Round: 0}}, procs)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, len(procs))
		for v, p := range procs {
			seen[v] = p.(*floodProc).seen
		}
		return m, seen
	}
	a, aSeen := run(5)
	b, bSeen := run(5)
	_, cSeen := run(6)
	if a.FaultDrops != b.FaultDrops || a.Messages != b.Messages || a.Deliveries != b.Deliveries {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if fmt.Sprint(aSeen) != fmt.Sprint(bSeen) {
		t.Fatal("same seed crashed different nodes")
	}
	if fmt.Sprint(aSeen) == fmt.Sprint(cSeen) {
		t.Fatal("different seeds crashed identical node sets (suspicious)")
	}
}

// The fault observer sees every drop and delay the metrics count, and one
// crash event per dead node. A tracer on the same run gets the per-send
// kinds as one fault/<kind> instant per busy round whose counts add up to
// what the observer saw, and one fault/crash instant per dead node.
func TestFaultObserverCounts(t *testing.T) {
	g, err := graph.Clique(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	fo := &countingFaultObserver{}
	ring := obs.NewRing(1 << 16)
	m, err := Run(Config{
		Graph: g, Seed: 2,
		Fault:         Compose(&Drop{P: 0.3}, &Delay{Max: 2}, &Crash{At: map[int]int{3: 0, 6: 1}}),
		FaultObserver: fo,
		Tracer:        obs.New(ring, 0),
	}, floodProcs(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	if fo.crashes != 2 {
		t.Fatalf("crash events = %d, want 2", fo.crashes)
	}
	if fo.delays != m.Delayed {
		t.Fatalf("delay events = %d, metrics %d", fo.delays, m.Delayed)
	}
	// In-transit drop events; crash-delivery drops are only in the metrics.
	if fo.drops > m.FaultDrops || fo.drops == 0 {
		t.Fatalf("drop events = %d, metrics %d", fo.drops, m.FaultDrops)
	}

	counts, crashes := traceFaultCounts(t, ring)
	if counts["drop"] != fo.drops || counts["delay"] != fo.delays {
		t.Fatalf("traced drop/delay counts %d/%d, observer saw %d/%d", counts["drop"], counts["delay"], fo.drops, fo.delays)
	}
	if counts["delay"] != m.Delayed {
		t.Fatalf("traced delay count %d, metrics %d", counts["delay"], m.Delayed)
	}
	if crashes != 2 {
		t.Fatalf("fault/crash instants = %d, want 2", crashes)
	}

	// The active adversary's mutations are tallied the same way.
	ring = obs.NewRing(1 << 16)
	m, err = Run(Config{
		Graph: g, Seed: 2,
		Fault:  &Byzantine{Frac: 0.4},
		Tracer: obs.New(ring, 0),
	}, floodProcs(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	counts, _ = traceFaultCounts(t, ring)
	if m.Mutated == 0 || counts["mutate"] != m.Mutated {
		t.Fatalf("traced mutate count %d, metrics %d", counts["mutate"], m.Mutated)
	}
}

// Every per-send fault the metrics count reaches the fault observer and
// the tracer's per-round tallies as one event of its kind. A forgery the
// mutator destroys is both a mutation and a drop, in all three.
func TestFaultEventsMatchMetrics(t *testing.T) {
	g, err := graph.Clique(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	planes := []struct {
		name  string
		fault func() FaultPlane
	}{
		{"byzantine", func() FaultPlane { return &Byzantine{Frac: 0.5} }},
		{"byzantine+drop", func() FaultPlane { return Compose(&Byzantine{Frac: 0.5}, &Drop{P: 0.2}) }},
		{"drop+delay", func() FaultPlane { return Compose(&Drop{P: 0.3}, &Delay{Max: 2}) }},
	}
	for _, pc := range planes {
		t.Run(pc.name, func(t *testing.T) {
			fo := &countObserver{}
			ring := obs.NewRing(1 << 16)
			m, err := Run(Config{
				Graph: g, Seed: 3,
				Fault:         pc.fault(),
				FaultObserver: fo,
				Tracer:        obs.New(ring, 0),
			}, floodProcs(g.N()))
			if err != nil {
				t.Fatal(err)
			}
			if m.FaultDrops == 0 {
				t.Fatal("the plane lost no send")
			}
			traced, _ := traceFaultCounts(t, ring)
			for _, c := range []struct {
				kind    FaultKind
				metrics int64
			}{{FaultDrop, m.FaultDrops}, {FaultMutate, m.Mutated}, {FaultDelay, m.Delayed}} {
				if fo.kinds[c.kind] != c.metrics || traced[c.kind.String()] != c.metrics {
					t.Errorf("%s: observer saw %d, tracer tallied %d, metrics count %d",
						c.kind, fo.kinds[c.kind], traced[c.kind.String()], c.metrics)
				}
			}
		})
	}
}

// traceFaultCounts sums the "count" args of a recorded run's per-send
// fault instants by kind and counts its crash instants. It fails the test
// if the ring overflowed or a busy round carries two instants of one
// per-send kind.
func traceFaultCounts(t *testing.T, ring *obs.Ring) (counts map[string]int64, crashes int) {
	t.Helper()
	if ring.Dropped() != 0 {
		t.Fatalf("flight ring dropped %d events", ring.Dropped())
	}
	type roundKind struct {
		round int64
		kind  string
	}
	instants := map[roundKind]int{}
	counts = map[string]int64{}
	for _, ev := range ring.Snapshot() {
		if ev.Cat != "fault" {
			continue
		}
		if ev.Name == FaultCrash.String() {
			crashes++
			continue
		}
		k := roundKind{ev.Round, ev.Name}
		if instants[k]++; instants[k] > 1 {
			t.Fatalf("round %d: %d %s instants", ev.Round, instants[k], ev.Name)
		}
		counts[ev.Name] += ev.Args["count"]
	}
	return counts, crashes
}

type countingFaultObserver struct {
	drops, delays, crashes int64
}

func (o *countingFaultObserver) OnFault(ev FaultEvent) {
	switch ev.Kind {
	case FaultDrop:
		o.drops++
	case FaultDelay:
		o.delays++
	case FaultCrash:
		o.crashes++
	}
}

// Compose elides nil and Perfect planes and unwraps single members.
func TestComposeElision(t *testing.T) {
	if Compose() != nil || Compose(nil, Perfect{}) != nil {
		t.Fatal("empty composition must be nil (perfect)")
	}
	d := &Drop{P: 0.5}
	if Compose(nil, d, Perfect{}) != FaultPlane(d) {
		t.Fatal("single effective plane must be returned unwrapped")
	}
	c := Compose(&Drop{P: 0.5}, &Delay{Max: 1})
	if _, ok := c.(*composite); !ok {
		t.Fatalf("two planes must compose, got %T", c)
	}
}

// The anonymous model must not leak sender identities unless explicitly
// asked to (Config.DebugFrom).
func TestEnvelopeFromGatedByDebugFrom(t *testing.T) {
	g, err := graph.Clique(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(debug bool) int {
		from := -2
		procs := []Process{
			processFunc(func(ctx *Context, inbox []Envelope) error {
				if ctx.Round() == 0 {
					return ctx.Send(0, testMsg{bits: 1, kind: "x"})
				}
				return nil
			}),
			processFunc(func(ctx *Context, inbox []Envelope) error {
				for _, env := range inbox {
					from = env.From
				}
				return nil
			}),
		}
		if _, err := Run(Config{Graph: g, Seed: 1, DebugFrom: debug}, procs); err != nil {
			t.Fatal(err)
		}
		return from
	}
	if got := run(false); got != -1 {
		t.Fatalf("default run leaked From = %d, want -1", got)
	}
	if got := run(true); got != 0 {
		t.Fatalf("DebugFrom run got From = %d, want sender 0", got)
	}
}

// The wake heap works both through its non-boxing methods and as a
// container/heap.Interface, and reuses its backing array across pops.
func TestRoundHeap(t *testing.T) {
	var h roundHeap
	for _, r := range []int{500, 3, 1000000, 42, 7} {
		h.push(r)
	}
	heap.Push(&h, 1) // the boxing-compat path
	want := []int{1, 3, 7, 42, 500, 1000000}
	for i, w := range want[:3] {
		if got := h.pop(); got != w {
			t.Fatalf("pop %d = %d, want %d", i, got, w)
		}
	}
	if got := heap.Pop(&h).(int); got != 42 {
		t.Fatalf("heap.Pop = %d, want 42", got)
	}
	before := cap(h)
	h.push(10)
	if cap(h) != before {
		t.Fatal("push after pop reallocated the backing array")
	}
	if h.pop() != 10 || h.pop() != 500 || h.pop() != 1000000 || h.Len() != 0 {
		t.Fatal("heap order wrong after reuse")
	}
}

// A partition that holds forever stops the flood at the cut; the same
// partition healing at round To lets it through afterwards, losing nothing
// once healed.
func TestPartitionBlocksThenHeals(t *testing.T) {
	g, err := graph.Clique(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Never heals (To <= From): minority nodes stay uninformed.
	procs := floodProcs(g.N())
	p := &Partition{Frac: 0.25, From: 0}
	if _, err := Run(Config{Graph: g, Seed: 11, Fault: p}, procs); err != nil {
		t.Fatal(err)
	}
	if len(p.minority) != 4 {
		t.Fatalf("minority size = %d, want 4", len(p.minority))
	}
	_, srcMinority := p.minority[0]
	informed := 0
	for v, pr := range procs {
		if pr.(*floodProc).seen {
			informed++
			if _, min := p.minority[v]; min != srcMinority {
				t.Fatalf("node %d informed across an unhealed cut", v)
			}
		}
	}
	if srcMinority && informed != 4 || !srcMinority && informed != 12 {
		t.Fatalf("informed = %d with source on minority=%v", informed, srcMinority)
	}
	// Heals after round 0: the flood is single-shot, so the heal must
	// come before the informed side forwards. Everyone ends up informed
	// and only the partitioned round drops anything.
	procs = floodProcs(g.N())
	m, err := Run(Config{Graph: g, Seed: 11, Fault: &Partition{Frac: 0.25, From: 0, To: 1}}, procs)
	if err != nil {
		t.Fatal(err)
	}
	for v, pr := range procs {
		if !pr.(*floodProc).seen {
			t.Fatalf("node %d never informed after heal", v)
		}
	}
	if m.FaultDrops == 0 {
		t.Fatal("the partition window dropped nothing (suspicious)")
	}
}

// A sender's fate stream must depend only on (seed, sender): consulting
// Drop for interleaved senders yields the same answers as consulting it
// for each sender alone. This is the invariant that makes the plane
// shard-safe — a shard hosting only some senders replays their fates.
func TestFaultFatesKeyedPerSender(t *testing.T) {
	g, err := graph.Clique(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	consult := func(senders []int) map[int][]bool {
		d := &Drop{P: 0.5}
		d.Reset(42, g)
		got := make(map[int][]bool)
		for _, from := range senders {
			_, ok := d.Fate(0, from, 0)
			got[from] = append(got[from], ok)
		}
		return got
	}
	interleaved := consult([]int{0, 1, 0, 2, 1, 0, 2, 1, 0})
	for from, want := range map[int]int{0: 4, 1: 3, 2: 2} {
		solo := consult([]int{from, from, from, from})
		if fmt.Sprint(interleaved[from]) != fmt.Sprint(solo[from][:want]) {
			t.Fatalf("sender %d's fates depend on interleaving: %v vs %v",
				from, interleaved[from], solo[from][:want])
		}
	}
}

// At Reset seed 9966146, senders 11 and 13 get DeriveSeed values with one
// residue mod 2³¹−1, so without the node-stream rule they would draw one
// stream of fates. The rule re-derives sender 13.
func TestSenderStreamCollisionRederived(t *testing.T) {
	const seed = 9966146
	if seedResidue(DeriveSeed(seed, 11)) != seedResidue(DeriveSeed(seed, 13)) {
		t.Fatal("premise: senders 11 and 13 have distinct residues")
	}
	g, err := graph.Clique(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := &Delay{Max: 1000}
	d.Reset(seed, g)
	same := 0
	for k := 0; k < 64; k++ {
		a, _ := d.Fate(0, 11, 0)
		b, _ := d.Fate(0, 13, 0)
		if a == b {
			same++
		}
	}
	if same == 64 {
		t.Fatal("senders 11 and 13 drew the same delay on all 64 sends")
	}
}

// The remote gate admits exactly the shard-safe planes and still rejects
// message budgets.
func TestValidateRemoteShardSafety(t *testing.T) {
	for _, fc := range faultCases {
		if err := validateRemote(Config{Fault: fc.mk()}); err != nil {
			t.Errorf("shard-safe plane %s rejected: %v", fc.name, err)
		}
	}
	if err := validateRemote(Config{Fault: unsafePlane{}}); err == nil {
		t.Error("plane without ShardAware must be rejected on sharded runs")
	}
	if err := validateRemote(Config{Fault: Compose(&Drop{P: 0.1}, unsafePlane{})}); err == nil {
		t.Error("composition containing an unsafe member must be rejected")
	}
	if err := validateRemote(Config{MessageBudget: 10}); err == nil {
		t.Error("message budgets must stay rejected on sharded runs")
	}
}

// unsafePlane implements FaultPlane without declaring shard safety.
type unsafePlane struct{}

func (unsafePlane) Reset(int64, *graph.Graph)      {}
func (unsafePlane) Fate(int, int, int) (int, bool) { return 0, true }
func (unsafePlane) Crashed(int, int) bool          { return false }

// Out-of-range crash fractions clamp instead of panicking.
func TestCrashSampleFracClamped(t *testing.T) {
	g, err := graph.Clique(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{-0.5, 1.5} {
		m, err := Run(Config{Graph: g, Seed: 1, Fault: &CrashSample{Frac: frac, Round: 0}}, floodProcs(g.N()))
		if err != nil {
			t.Fatalf("frac %v: %v", frac, err)
		}
		if frac < 0 && m.Deliveries == 0 {
			t.Fatal("negative fraction must crash nobody")
		}
		if frac > 1 && m.Messages != 0 {
			t.Fatalf("fraction > 1 must crash everyone, got %d messages", m.Messages)
		}
	}
}
