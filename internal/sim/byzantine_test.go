package sim

import (
	"testing"

	"wcle/internal/graph"
)

// The sim package cannot import wire (wire imports sim), so the sim-side
// Byzantine tests register a deterministic stand-in mutation codec: one
// rng draw per adversarial send deciding destroyed / untouched / forged
// (forged redelivers the original value, which exercises the accounting
// without needing byte codecs). The real byte-level codec is tested from
// internal/wire (FuzzByzantineMutate) and end-to-end from internal/engine
// and the algotest battery.
func init() {
	RegisterMutator(func(rng *Rand, m Message) (Message, bool) {
		switch rng.Intn(3) {
		case 0:
			return nil, false // destroyed
		case 1:
			return nil, true // untouched
		default:
			return m, true // forged
		}
	})
	// The engine-equivalence contract must hold for the active adversary
	// exactly like the omission planes.
	faultCases = append(faultCases,
		struct {
			name string
			mk   func() FaultPlane
		}{"byzantine", func() FaultPlane { return &Byzantine{Frac: 0.4} }},
		struct {
			name string
			mk   func() FaultPlane
		}{"byzantine-composite", func() FaultPlane {
			return Compose(&Drop{P: 0.1}, &Byzantine{Frac: 0.3}, &Delay{Max: 2})
		}},
	)
}

func TestByzantineSampleDeterministic(t *testing.T) {
	g, err := graph.Clique(20, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := &Byzantine{Frac: 0.25}
	a.Reset(42, g)
	first := a.Adversaries()
	if len(first) != 5 {
		t.Fatalf("sampled %d adversaries, want 5", len(first))
	}
	b := &Byzantine{Frac: 0.25}
	b.Reset(42, g)
	second := b.Adversaries()
	if len(first) != len(second) {
		t.Fatalf("resample size diverged: %v vs %v", first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("resample diverged: %v vs %v", first, second)
		}
	}
	// The oracle used by tests that only know (seed, n, frac) must agree
	// with the plane's own sample. The plane is reset with the derived
	// fault-stream seed by the runner, so compare at the raw seed level.
	oracle := SampleAdversaries(42, g.N(), 0.25)
	for i := range first {
		if first[i] != oracle[i] {
			t.Fatalf("SampleAdversaries oracle %v disagrees with plane %v", oracle, first)
		}
	}
	c := &Byzantine{Frac: 0.25}
	c.Reset(43, g)
	same := true
	third := c.Adversaries()
	for i := range first {
		if first[i] != third[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds sampled the identical set %v", first)
	}
}

func TestByzantinePinnedNodes(t *testing.T) {
	g, err := graph.Cycle(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := &Byzantine{Frac: 0.9, Nodes: []int{6, 2}}
	a.Reset(7, g)
	got := a.Adversaries()
	if len(got) != 2 || got[0] != 2 || got[1] != 6 {
		t.Fatalf("pinned set = %v, want [2 6]", got)
	}
	if !a.IsAdversary(2) || !a.IsAdversary(6) || a.IsAdversary(0) {
		t.Fatal("IsAdversary disagrees with pinned set")
	}
	if a.Crashed(2, 100) {
		t.Fatal("adversaries must not crash")
	}
	if d, ok := a.Fate(0, 2, 3); d != 0 || !ok {
		t.Fatal("the byzantine plane must not omit on its own")
	}
}

func TestByzantineFracClamped(t *testing.T) {
	g, err := graph.Clique(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for frac, want := range map[float64]int{-1: 0, 0: 0, 2: 4, 1: 4} {
		a := &Byzantine{Frac: frac}
		a.Reset(1, g)
		if got := len(a.Adversaries()); got != want {
			t.Fatalf("frac %g sampled %d adversaries, want %d", frac, got, want)
		}
	}
}

// TestByzantineAccounting holds the active adversary to the accounting
// identity of the fault layer: accepted sends either deliver or count as
// fault drops, and every mutation event is mirrored in Metrics.Mutated
// and the fault observer stream.
func TestByzantineAccounting(t *testing.T) {
	g, err := graph.Clique(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := &countObserver{}
	m, err := Run(Config{
		Graph:         g,
		Seed:          3,
		Fault:         &Byzantine{Frac: 0.5},
		FaultObserver: counts,
	}, floodProcs(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	if m.Mutated == 0 {
		t.Fatal("a half-byzantine clique flood mutated nothing")
	}
	if m.Messages != m.Deliveries+m.FaultDrops {
		t.Fatalf("accounting identity broken: %+v", m)
	}
	if counts.kinds[FaultMutate] != m.Mutated {
		t.Fatalf("observer saw %d mutate events, metrics say %d", counts.kinds[FaultMutate], m.Mutated)
	}
	// The plane never omission-drops on its own: its only drops are the
	// mutations that destroy a message, each both a FaultMutate and a
	// FaultDrop event, as it is both in the metrics.
	if counts.kinds[FaultDrop] != m.FaultDrops {
		t.Fatalf("observer saw %d drop events, metrics say %d", counts.kinds[FaultDrop], m.FaultDrops)
	}
	if m.FaultDrops > m.Mutated {
		t.Fatalf("destroyed sends (%d) exceed mutations (%d)", m.FaultDrops, m.Mutated)
	}
}

type countObserver struct {
	kinds map[FaultKind]int64
}

func (c *countObserver) OnFault(ev FaultEvent) {
	if c.kinds == nil {
		c.kinds = make(map[FaultKind]int64)
	}
	c.kinds[ev.Kind]++
}

// TestComposeKeepsMutatorCapability: a composition with an active member
// must still type-assert as a Mutator (the runner's cache), and one
// without must stay on the plain composite.
func TestComposeKeepsMutatorCapability(t *testing.T) {
	active := Compose(&Drop{P: 0.1}, &Byzantine{Frac: 0.2})
	if _, ok := active.(Mutator); !ok {
		t.Fatalf("composed plane %T lost the Mutator capability", active)
	}
	if sa, ok := active.(ShardAware); !ok || !sa.ShardSafe() {
		t.Fatalf("composed byzantine plane %T must stay shard-safe", active)
	}
	passive := Compose(&Drop{P: 0.1}, &Delay{Max: 1})
	if _, ok := passive.(Mutator); ok {
		t.Fatalf("omission-only composition %T must not claim the Mutator capability", passive)
	}
	solo := Compose(nil, &Byzantine{Frac: 0.2}, Perfect{})
	if _, ok := solo.(*Byzantine); !ok {
		t.Fatalf("single-member composition returned %T, want *Byzantine", solo)
	}
}

// scriptedMutator forges/destroys by script, for chaining semantics.
type scriptedMutator struct {
	Perfect
	f func(m Message) (Message, bool)
}

func (s *scriptedMutator) Reset(int64, *graph.Graph) {}
func (s *scriptedMutator) Mutate(_, _, _ int, m Message) (Message, bool) {
	return s.f(m)
}

func TestMutatorCompositionChains(t *testing.T) {
	forge := func(kind string) *scriptedMutator {
		return &scriptedMutator{f: func(Message) (Message, bool) {
			return testMsg{kind: kind, bits: 1}, true
		}}
	}
	pass := &scriptedMutator{f: func(Message) (Message, bool) { return nil, true }}
	kill := &scriptedMutator{f: func(Message) (Message, bool) { return nil, false }}

	in := testMsg{kind: "orig", bits: 1}
	cases := []struct {
		name    string
		plane   FaultPlane
		want    string // delivered kind, "" for destroyed
		deliver bool
	}{
		{"pass-pass", Compose(pass, &scriptedMutator{f: pass.f}, &Drop{P: 0}), "orig", true},
		{"forge-last-wins", Compose(forge("a"), forge("b")), "b", true},
		{"forge-then-pass", Compose(forge("a"), &scriptedMutator{f: pass.f}), "a", true},
		{"killed", Compose(forge("a"), kill), "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mt, ok := tc.plane.(Mutator)
			if !ok {
				t.Fatalf("%T is not a Mutator", tc.plane)
			}
			out, deliver := mt.Mutate(0, 0, 1, in)
			if deliver != tc.deliver {
				t.Fatalf("deliver = %v, want %v", deliver, tc.deliver)
			}
			if !deliver {
				return
			}
			got := "orig"
			if out != nil {
				got = out.Kind()
			}
			if got != tc.want {
				t.Fatalf("delivered kind %q, want %q", got, tc.want)
			}
		})
	}
}
