package protocol

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"wcle/internal/graph"
	"wcle/internal/sim"
)

func TestSizingBasics(t *testing.T) {
	s, err := NewSizing(1024)
	if err != nil {
		t.Fatal(err)
	}
	if s.L != 10 {
		t.Fatalf("L = %d, want 10", s.L)
	}
	if s.IDBits() != 40 || s.CountBits() != 20 {
		t.Fatalf("id=%d count=%d", s.IDBits(), s.CountBits())
	}
	if s.CongestCap() <= s.IDBits() {
		t.Fatal("congest cap must fit at least one id")
	}
	if s.LargeCap() != s.CongestCap()*s.L*s.L {
		t.Fatal("large cap should be congest * L^2")
	}
	if _, err := NewSizing(1); err == nil {
		t.Fatal("n=1 should fail")
	}
}

func TestSizingModeErrors(t *testing.T) {
	s, err := NewSizing(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cap(Mode(99)); err == nil {
		t.Fatal("unknown mode should fail")
	}
	if _, err := s.MaxIDsPerMessage(Mode(99)); err == nil {
		t.Fatal("unknown mode should fail")
	}
	if Mode(99).String() == "" || ModeCongest.String() != "congest" || ModeLarge.String() != "large" {
		t.Fatal("mode strings wrong")
	}
}

func TestMaxIDsPerMessage(t *testing.T) {
	s, err := NewSizing(256)
	if err != nil {
		t.Fatal(err)
	}
	small, err := s.MaxIDsPerMessage(ModeCongest)
	if err != nil {
		t.Fatal(err)
	}
	big, err := s.MaxIDsPerMessage(ModeLarge)
	if err != nil {
		t.Fatal(err)
	}
	if small < 1 {
		t.Fatal("congest must allow at least one id")
	}
	if big < 10*small {
		t.Fatalf("large mode ids = %d should dwarf congest %d", big, small)
	}
	// A full message exactly fits the cap.
	if got := s.OverheadBits() + small*s.IDBits(); got > s.CongestCap() {
		t.Fatalf("full congest message %d bits exceeds cap %d", got, s.CongestCap())
	}
	if got := s.OverheadBits() + big*s.IDBits(); got > s.LargeCap() {
		t.Fatalf("full large message %d bits exceeds cap %d", got, s.LargeCap())
	}
}

func TestRandomIDRange(t *testing.T) {
	rng := sim.NewRand(3)
	n := 16
	max := uint64(n) * uint64(n) * uint64(n) * uint64(n)
	seen := make(map[ID]bool)
	for i := 0; i < 5000; i++ {
		id := RandomID(rng.Uint64, n)
		if id < 1 || uint64(id) > max {
			t.Fatalf("id %d out of [1, n^4]", id)
		}
		seen[id] = true
	}
	// n^4 = 65536 >> 5000 draws: collisions possible but distinct ids must
	// dominate (w.h.p. uniqueness is the paper's Section 1 footnote 3).
	if len(seen) < 4500 {
		t.Fatalf("only %d distinct ids in 5000 draws", len(seen))
	}
}

// The ids drawn at n = 512 from one seeded stream, pinned: widening
// RandomID's range for n >= 65,536 must not move any smaller network's ids.
func TestRandomIDPinned512(t *testing.T) {
	rng := sim.NewRand(2024)
	want := []ID{39031657610, 18996669282, 43369113022, 26769437432, 62640625190, 42744518356}
	for i, w := range want {
		if got := RandomID(rng.Uint64, 512); got != w {
			t.Fatalf("id %d: %d, want %d", i, got, w)
		}
	}
}

// n^4 overflows a uint64 from n = 65,536 on (and wraps to 0 at multiples
// of 65,536); the id is then a nonzero uint64 draw.
func TestRandomIDLargeN(t *testing.T) {
	for _, n := range []int{65536, 100000, 131072, 1 << 20} {
		rng := sim.NewRand(int64(n))
		for i := 0; i < 1000; i++ {
			if id := RandomID(rng.Uint64, n); id == 0 {
				t.Fatalf("n=%d: id 0", n)
			}
		}
		draws := []uint64{0, 0, 7}
		next := func() uint64 { v := draws[0]; draws = draws[1:]; return v }
		if id := RandomID(next, n); id != 7 {
			t.Fatalf("n=%d: id %d after two zero draws, want 7", n, id)
		}
	}
	// The largest n whose n^4 fits keeps the [1, n^4] range.
	max := uint64(65535) * 65535 * 65535 * 65535
	if id := RandomID(func() uint64 { return max - 1 }, 65535); uint64(id) != max {
		t.Fatalf("n=65535: id %d, want %d", id, max)
	}
}

func TestCodecMessageBits(t *testing.T) {
	c, err := NewCodec(512, ModeCongest)
	if err != nil {
		t.Fatal(err)
	}
	tok := c.Token(7, 1, 10, 42)
	if tok.Bits() != c.S.OverheadBits() {
		t.Fatalf("token bits = %d, want %d", tok.Bits(), c.S.OverheadBits())
	}
	if tok.Kind() != KindToken {
		t.Fatal("token kind wrong")
	}
	up, err := c.Up(7, 1, UpX1, []ID{1}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if up.Bits() != c.S.OverheadBits()+c.S.IDBits() {
		t.Fatalf("up bits = %d", up.Bits())
	}
	if up.Bits() > c.Cap() {
		t.Fatal("up message exceeds cap")
	}
	down, err := c.Down(7, 1, DownX2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if down.Kind() != KindDown || up.Kind() != KindUp {
		t.Fatal("kinds wrong")
	}
	tooMany := make([]ID, c.MaxIDs+1)
	if _, err := c.Up(7, 1, UpX1, tooMany, 0, 0); err == nil {
		t.Fatal("over-limit ids should fail")
	}
	if _, err := c.Down(7, 1, DownX2, tooMany); err == nil {
		t.Fatal("over-limit ids should fail")
	}
}

func TestBinomialHalfExactness(t *testing.T) {
	rng := sim.NewRand(9)
	// Moments: mean n/2, variance n/4.
	n := 1000
	trials := 2000
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		v := BinomialHalf(rng, n)
		if v < 0 || v > n {
			t.Fatalf("out of range: %d", v)
		}
		sum += float64(v)
		sumSq += float64(v) * float64(v)
	}
	mean := sum / float64(trials)
	varr := sumSq/float64(trials) - mean*mean
	if math.Abs(mean-500) > 3 {
		t.Fatalf("mean = %v, want ~500", mean)
	}
	if math.Abs(varr-250) > 40 {
		t.Fatalf("variance = %v, want ~250", varr)
	}
	if BinomialHalf(rng, 0) != 0 {
		t.Fatal("Binomial(0) != 0")
	}
}

func TestDistributeUniform(t *testing.T) {
	rng := sim.NewRand(4)
	counts := DistributeUniform(rng, 10000, 4)
	var total int
	for _, c := range counts {
		total += c
		if c < 2200 || c > 2800 {
			t.Fatalf("bin count %d too far from 2500", c)
		}
	}
	if total != 10000 {
		t.Fatalf("total = %d", total)
	}
}

func TestHolderConservation(t *testing.T) {
	// Property: tokens are conserved across Step: added = moved + landed + held.
	prop := func(seed int64, count8 uint8, rem8 uint8, deg8 uint8) bool {
		rng := sim.NewRand(seed)
		count := 1 + int(count8)%500
		rem := 1 + int(rem8)%10
		deg := 1 + int(deg8)%8
		h := NewHolder()
		h.Add(1, 0, rem, count)
		var moved, landed int
		h.Step(deg, rng,
			func(port int, origin ID, phase, remaining, cnt int) {
				if port < 0 || port >= deg || remaining != rem-1 {
					t.Errorf("bad move: port=%d remaining=%d", port, remaining)
				}
				moved += cnt
			},
			func(origin ID, phase, cnt int) { landed += cnt })
		return moved+landed+h.Len() == count
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHolderLanding(t *testing.T) {
	rng := sim.NewRand(7)
	h := NewHolder()
	h.Add(5, 2, 1, 100) // one remaining step: stayers land here, movers leave with remaining 0
	var landedHere, movedOut int
	h.Step(4, rng,
		func(port int, origin ID, phase, remaining, cnt int) {
			if remaining != 0 {
				t.Fatalf("movers should carry remaining 0, got %d", remaining)
			}
			movedOut += cnt
		},
		func(origin ID, phase, cnt int) {
			if origin != 5 || phase != 2 {
				t.Fatalf("landing mislabeled: %d/%d", origin, phase)
			}
			landedHere += cnt
		})
	if landedHere+movedOut != 100 || !h.Empty() {
		t.Fatalf("landed=%d moved=%d held=%d", landedHere, movedOut, h.Len())
	}
}

func TestHolderIgnoresZeroAndNegative(t *testing.T) {
	h := NewHolder()
	h.Add(1, 0, 0, 10) // remaining 0 not held
	h.Add(1, 0, 5, 0)  // zero count
	h.Add(1, 0, 5, -3) // negative count
	if !h.Empty() {
		t.Fatal("holder should be empty")
	}
}

func TestHolderDropPhases(t *testing.T) {
	h := NewHolder()
	h.Add(1, 0, 5, 10)
	h.Add(1, 1, 5, 20)
	h.Add(2, 0, 5, 30)
	h.DropPhasesBefore(1, 1)
	if h.Len() != 50 {
		t.Fatalf("len = %d, want 50 (kept phase-1 origin-1 and origin-2)", h.Len())
	}
}

func TestHolderDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		rng := sim.NewRand(seed)
		h := NewHolder()
		h.Add(1, 0, 3, 100)
		h.Add(2, 0, 2, 50)
		var trace []int
		for i := 0; i < 5 && !h.Empty(); i++ {
			h.Step(4, rng,
				func(port int, origin ID, phase, remaining, cnt int) {
					trace = append(trace, port, int(origin), remaining, cnt)
				},
				func(origin ID, phase, cnt int) {
					trace = append(trace, -1, int(origin), 0, cnt)
				})
		}
		return trace
	}
	a, b := run(11), run(11)
	if len(a) != len(b) {
		t.Fatal("traces differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces differ at %d", i)
		}
	}
}

// outbox tests use a tiny two-node clique through the real engine.

type flushProc struct {
	ob     *Outbox
	load   func(*Outbox)
	loaded bool
	got    []sim.Envelope
}

func (p *flushProc) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	p.got = append(p.got, inbox...)
	if p.ob == nil {
		return nil
	}
	if !p.loaded {
		p.loaded = true
		p.load(p.ob)
	}
	if err := p.ob.Flush(ctx, 0); err != nil {
		return err
	}
	if p.ob.Pending() > 0 {
		ctx.WakeAt(ctx.Round() + 1)
	}
	return nil
}

func runOutbox(t *testing.T, codec *Codec, load func(*Outbox)) (sim.Metrics, []sim.Envelope) {
	t.Helper()
	g := cliqueOf2(t)
	sender := &flushProc{ob: NewOutbox(codec, 1), load: load}
	receiver := &flushProc{}
	m, err := sim.Run(sim.Config{Graph: g, Seed: 1, MaxMessageBits: codec.Cap()}, []sim.Process{sender, receiver})
	if err != nil {
		t.Fatal(err)
	}
	return m, receiver.got
}

func cliqueOf2(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.Clique(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// bothModes runs f as a subtest under each message mode: CONGEST, where
// every fragment carries one id, and Lemma 12's large mode, where a
// fragment's ids past the first live in an outbox-owned id buffer.
func bothModes(t *testing.T, f func(t *testing.T, codec *Codec)) {
	t.Helper()
	for _, mode := range []Mode{ModeCongest, ModeLarge} {
		t.Run(mode.String(), func(t *testing.T) {
			codec, err := NewCodec(64, mode)
			if err != nil {
				t.Fatal(err)
			}
			f(t, codec)
		})
	}
}

// fragments is how many messages a push of k ids takes under codec.
func fragments(codec *Codec, k int) int { return (k + codec.MaxIDs - 1) / codec.MaxIDs }

func TestOutboxTokenMerge(t *testing.T) {
	codec, err := NewCodec(64, ModeCongest)
	if err != nil {
		t.Fatal(err)
	}
	m, got := runOutbox(t, codec, func(ob *Outbox) {
		h9, h10 := ob.NewHandle(9), ob.NewHandle(10)
		ob.PushToken(0, h9, 1, 5, 10)
		ob.PushToken(0, h9, 1, 5, 7)  // merges: same origin/phase/remaining
		ob.PushToken(0, h9, 1, 4, 3)  // different remaining: second message
		ob.PushToken(0, h10, 1, 5, 2) // different origin: third message
		ob.PushToken(0, h9, 1, 5, 0)  // no-op
	})
	if m.Messages != 3 {
		t.Fatalf("messages = %d, want 3 (merged batches)", m.Messages)
	}
	var total int
	for _, env := range got {
		tok := env.Payload.(*TokenMsg)
		total += tok.Count
	}
	if total != 22 {
		t.Fatalf("token count = %d, want 22", total)
	}
	if got[2].Payload.(*TokenMsg).Origin != 10 {
		t.Fatalf("third batch origin = %d, want 10 (named by its handle)", got[2].Payload.(*TokenMsg).Origin)
	}
}

func TestOutboxUpMergeAndChunk(t *testing.T) {
	bothModes(t, func(t *testing.T, codec *Codec) {
		ids := make([]ID, 2*codec.MaxIDs+1)
		for i := range ids {
			ids[i] = ID(i + 1)
		}
		m, got := runOutbox(t, codec, func(ob *Outbox) {
			h := ob.NewHandle(9)
			ob.PushUp(0, h, 1, UpX1, ids, 3, 1)
			ob.PushUp(0, h, 1, UpX1, nil, 2, 1) // deltas merge into open fragment
			ob.PushUp(0, h, 1, UpX1, []ID{1}, 0, 0)
		})
		// ids need ceil((2k+1)/k) = 3 messages; duplicate id 1 is absorbed.
		if m.Messages != 3 {
			t.Fatalf("messages = %d, want 3", m.Messages)
		}
		seen := make(map[ID]int)
		var d, p int
		for _, env := range got {
			up := env.Payload.(*UpMsg)
			if len(up.IDs) > codec.MaxIDs {
				t.Fatalf("fragment carries %d ids > limit %d", len(up.IDs), codec.MaxIDs)
			}
			if up.Origin != 9 || up.Phase != 1 || up.Stage != UpX1 {
				t.Fatalf("fragment header %d/%d/%d, want 9/1/%d", up.Origin, up.Phase, up.Stage, UpX1)
			}
			for _, id := range up.IDs {
				seen[id]++
			}
			d += up.DDelta
			p += up.PDelta
		}
		if len(seen) != len(ids) {
			t.Fatalf("saw %d distinct ids, want %d", len(seen), len(ids))
		}
		if d != 5 || p != 2 {
			t.Fatalf("deltas d=%d p=%d, want 5,2", d, p)
		}
	})
}

// The per-edge filter belongs to the exact phase: an id pushed at phase 1
// and again at phase 1+2^32 (forged token phases reach any 64-bit value)
// is sent once per phase.
func TestOutboxUpFilterExactPhase(t *testing.T) {
	bothModes(t, func(t *testing.T, codec *Codec) {
		const far = 1 + 1<<32
		m, got := runOutbox(t, codec, func(ob *Outbox) {
			h := ob.NewHandle(9)
			ob.PushUp(0, h, 1, UpX1, []ID{5}, 0, 0)
			ob.PushUp(0, h, far, UpX1, []ID{5}, 0, 0)
		})
		if m.Messages != 2 {
			t.Fatalf("messages = %d, want 2 (one per phase)", m.Messages)
		}
		for i, phase := range []int{1, far} {
			up := got[i].Payload.(*UpMsg)
			if up.Phase != phase || len(up.IDs) != 1 || up.IDs[0] != 5 {
				t.Fatalf("message %d: phase %d ids %v, want phase %d ids [5]", i, up.Phase, up.IDs, phase)
			}
		}
	})
}

func TestOutboxDownDedupe(t *testing.T) {
	// Downcast ids are not filtered here: the walk tree pushes each id to
	// each child once per phase (TestNoEdgeCarriesAnIDTwice in
	// internal/core checks that on whole elections).
	bothModes(t, func(t *testing.T, codec *Codec) {
		m, got := runOutbox(t, codec, func(ob *Outbox) {
			h := ob.NewHandle(9)
			ob.PushDown(0, h, 1, DownFinal, nil)
			ob.PushDown(0, h, 1, DownFinal, nil) // dedupes while queued
			ob.PushDown(0, h, 1, DownX2, []ID{4, 5})
		})
		want := int64(1 + fragments(codec, 2)) // FINAL + the X2 fragments
		if m.Messages != want {
			t.Fatalf("messages = %d, want %d", m.Messages, want)
		}
		seen := map[ID]int{}
		for _, env := range got {
			if d, ok := env.Payload.(*DownMsg); ok && d.Op == DownX2 {
				for _, id := range d.IDs {
					seen[id]++
				}
			}
		}
		if len(seen) != 2 || seen[4] != 1 || seen[5] != 1 {
			t.Fatalf("downcast ids = %v, want 4 and 5 once each", seen)
		}
	})
}

// runSteps drives an outbox on a 2-clique: in its i-th step the sender
// runs steps[i] and flushes, and it keeps flushing until nothing is owed.
func runSteps(t *testing.T, codec *Codec, steps ...func(*Outbox)) (sim.Metrics, []sim.Envelope) {
	t.Helper()
	ob := NewOutbox(codec, 1)
	step := 0
	sender := &stepFunc{fn: func(ctx *sim.Context, inbox []sim.Envelope) error {
		if step < len(steps) {
			steps[step](ob)
		}
		step++
		if err := ob.Flush(ctx, 0); err != nil {
			return err
		}
		if step < len(steps) || ob.Pending() > 0 {
			ctx.WakeAt(ctx.Round() + 1)
		}
		return nil
	}}
	receiver := &flushProc{}
	m, err := sim.Run(sim.Config{Graph: cliqueOf2(t), Seed: 1, MaxMessageBits: codec.Cap()}, []sim.Process{sender, receiver})
	if err != nil {
		t.Fatal(err)
	}
	return m, receiver.got
}

func TestOutboxNoMergeAfterSend(t *testing.T) {
	// A message already transmitted must not be mutated by later pushes:
	// neither a token batch's count nor a fragment's ids, whose id buffer
	// the next fragment reuses once the first is sent.
	bothModes(t, func(t *testing.T, codec *Codec) {
		var h Handle
		m, got := runSteps(t, codec,
			func(ob *Outbox) {
				h = ob.NewHandle(9)
				ob.PushToken(0, h, 1, 5, 10)
			},
			func(ob *Outbox) {
				ob.PushDown(0, h, 1, DownX2, []ID{4, 5})
				ob.PushToken(0, h, 1, 5, 7) // must become a NEW message
			},
			func(ob *Outbox) {
				// The first X2 fragment went out last round; these ids
				// must not join it.
				ob.PushDown(0, h, 1, DownX2, []ID{6, 7})
			})
		if want := int64(2 + 2*fragments(codec, 2)); m.Messages != want {
			t.Fatalf("messages = %d, want %d (no merge into sent message)", m.Messages, want)
		}
		if got := got[0].Payload.(*TokenMsg).Count; got != 10 {
			t.Fatalf("first batch count = %d, want 10 (mutated after send?)", got)
		}
		var ids []ID
		for _, env := range got {
			if d, ok := env.Payload.(*DownMsg); ok {
				ids = append(ids, d.IDs...)
			}
		}
		if !slices.Equal(ids, []ID{4, 5, 6, 7}) {
			t.Fatalf("downcast ids in arrival order = %v, want [4 5 6 7]", ids)
		}
	})
}

type stepFunc struct {
	fn func(*sim.Context, []sim.Envelope) error
}

func (s *stepFunc) Step(ctx *sim.Context, inbox []sim.Envelope) error { return s.fn(ctx, inbox) }

func TestOutboxWinnerStamp(t *testing.T) {
	// Every kind is stamped with the winner id current at its flush, and a
	// fragment's message is built whole: ids, bits, origin and phase.
	bothModes(t, func(t *testing.T, codec *Codec) {
		g := cliqueOf2(t)
		ob := NewOutbox(codec, 1)
		h := ob.NewHandle(9)
		ob.PushToken(0, h, 1, 5, 1)
		ob.PushUp(0, h, 1, UpX3, []ID{1, 2}, 0, 0)
		ob.PushDown(0, h, 1, DownX2, []ID{3, 4})
		sender := &stepFunc{fn: func(ctx *sim.Context, inbox []sim.Envelope) error {
			if err := ob.Flush(ctx, ID(777+ctx.Round())); err != nil {
				return err
			}
			if ob.Pending() > 0 {
				ctx.WakeAt(ctx.Round() + 1)
			}
			return nil
		}}
		receiver := &flushProc{}
		if _, err := sim.Run(sim.Config{Graph: g, Seed: 1, MaxMessageBits: codec.Cap()}, []sim.Process{sender, receiver}); err != nil {
			t.Fatal(err)
		}
		if want := 1 + 2*fragments(codec, 2); len(receiver.got) != want {
			t.Fatalf("%d messages arrived, want %d", len(receiver.got), want)
		}
		for i, env := range receiver.got {
			var win ID
			var ids []ID
			switch m := env.Payload.(type) {
			case *TokenMsg:
				win = m.Win
			case *UpMsg:
				win, ids = m.Win, m.IDs
				if m.Origin != 9 || m.Phase != 1 {
					t.Fatalf("up header %d/%d, want 9/1", m.Origin, m.Phase)
				}
			case *DownMsg:
				win, ids = m.Win, m.IDs
				if m.Origin != 9 || m.Phase != 1 {
					t.Fatalf("down header %d/%d, want 9/1", m.Origin, m.Phase)
				}
			}
			if want := ID(777 + i); win != want {
				t.Fatalf("message %d: winner stamp = %d, want %d", i, win, want)
			}
			if want := codec.msgBits(len(ids)); env.Payload.Bits() != want {
				t.Fatalf("message %d: %d bits for %d ids, want %d", i, env.Payload.Bits(), len(ids), want)
			}
		}
	})
}

func TestOutboxCongestOneMessagePerRound(t *testing.T) {
	// Many queued fragments drain one per round per port.
	codec, err := NewCodec(64, ModeCongest)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := runOutbox(t, codec, func(ob *Outbox) {
		for i := 0; i < 5; i++ {
			ob.PushToken(0, ob.NewHandle(ID(100+i)), 1, 3, 1) // distinct origins: no merge
		}
	})
	if m.Messages != 5 {
		t.Fatalf("messages = %d, want 5", m.Messages)
	}
	if m.FinalRound < 4 {
		t.Fatalf("final round = %d; five fragments need five rounds on one port", m.FinalRound)
	}
}

// A queued message is a value record: pushing thousands of one-id
// downcasts onto one port allocates no message object, only ring growth.
func TestOutboxQueuesValues(t *testing.T) {
	codec, err := NewCodec(64, ModeCongest)
	if err != nil {
		t.Fatal(err)
	}
	const pushes = 4096
	ids := make([]ID, pushes)
	for i := range ids {
		ids[i] = ID(i + 1)
	}
	allocs := testing.AllocsPerRun(5, func() {
		ob := NewOutbox(codec, 1)
		h := ob.NewHandle(9)
		for i := range ids {
			ob.PushDown(0, h, 1, DownX2, ids[i:i+1])
		}
		if ob.Pending() != pushes {
			t.Fatalf("pending = %d, want %d", ob.Pending(), pushes)
		}
	})
	if allocs >= 64 {
		t.Fatalf("%v allocations to queue %d downcasts; queued messages must not be objects", allocs, pushes)
	}
}

// The queued records hold no pointer, slice, map, string or interface, so
// a standing backlog is invisible to the garbage collector's marking.
func TestOutboxRecordsHoldNoPointers(t *testing.T) {
	f, ok := reflect.TypeOf(portQ{}).FieldByName("q")
	if !ok {
		t.Fatal("portQ has no field q")
	}
	buf, ok := f.Type.FieldByName("buf")
	if !ok {
		t.Fatal("portQ.q has no buf")
	}
	elem := buf.Type.Elem()
	if path, ok := pointerFree(elem, elem.Name()); !ok {
		t.Fatalf("portQ.q queues %s, which holds a pointer at %s", elem, path)
	}
	// Record width is what a backlog costs in bytes; an exact layout takes
	// four words of values plus the handle and three tags.
	if size := reflect.TypeOf(rec{}).Size(); size > 40 {
		t.Fatalf("a queued record takes %d bytes, want at most 40", size)
	}
}

// pointerFree reports whether values of t hold no pointer, and if they do,
// the path to the first one.
func pointerFree(t reflect.Type, path string) (string, bool) {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
		return path, false
	case reflect.Array:
		return pointerFree(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p, ok := pointerFree(f.Type, path+"."+f.Name); !ok {
				return p, false
			}
		}
	}
	return "", true
}
