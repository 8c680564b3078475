package protocol

import (
	"testing"
	"testing/quick"

	"wcle/internal/graph"
	"wcle/internal/sim"
)

// Property: every message the codec can construct respects its mode's cap,
// across network sizes and id loads.
func TestMessagesRespectCapProperty(t *testing.T) {
	prop := func(nRaw uint16, kRaw uint8, modeRaw bool) bool {
		n := 2 + int(nRaw)%8192
		mode := ModeCongest
		if modeRaw {
			mode = ModeLarge
		}
		c, err := NewCodec(n, mode)
		if err != nil {
			return false
		}
		k := int(kRaw) % (c.MaxIDs + 1)
		ids := make([]ID, k)
		for i := range ids {
			ids[i] = ID(i + 1)
		}
		up, err := c.Up(1, 0, UpX1, ids, 5, -3)
		if err != nil {
			return false
		}
		down, err := c.Down(1, 0, DownX2, ids)
		if err != nil {
			return false
		}
		tok := c.Token(1, 0, 9, 100)
		return up.Bits() <= c.Cap() && down.Bits() <= c.Cap() && tok.Bits() <= c.Cap()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// simulateUpPush drives an outbox on a 2-clique: ids are pushed in two
// halves plus a full duplicate, and the receiver records what arrives.
func simulateUpPush(tb testing.TB, seed int64, codec *Codec, ids []ID, got map[ID]int) {
	tb.Helper()
	g, err := graph.Clique(2, nil)
	if err != nil {
		tb.Fatal(err)
	}
	ob := NewOutbox(codec, 1)
	loaded := false
	sender := &stepFunc{fn: func(ctx *sim.Context, inbox []sim.Envelope) error {
		if !loaded {
			loaded = true
			half := len(ids) / 2
			h := ob.NewHandle(9)
			ob.PushUp(0, h, 1, UpX1, ids[:half], 1, 0)
			ob.PushUp(0, h, 1, UpX1, ids[half:], 0, 1)
			ob.PushUp(0, h, 1, UpX1, ids, 0, 0) // duplicates: must be filtered
		}
		if err := ob.Flush(ctx, 0); err != nil {
			return err
		}
		if ob.Pending() > 0 {
			ctx.WakeAt(ctx.Round() + 1)
		}
		return nil
	}}
	receiver := &stepFunc{fn: func(ctx *sim.Context, inbox []sim.Envelope) error {
		for _, env := range inbox {
			if up, ok := env.Payload.(*UpMsg); ok {
				for _, id := range up.IDs {
					got[id]++
				}
			}
		}
		return nil
	}}
	if _, err := sim.Run(sim.Config{Graph: g, Seed: seed, MaxMessageBits: codec.Cap()},
		[]sim.Process{sender, receiver}); err != nil {
		tb.Fatal(err)
	}
}

// TestOutboxIDConservation: everything pushed arrives exactly once per
// port, regardless of chunking and duplicate pushes (the filtering rule
// must lose nothing and deliver nothing twice).
func TestOutboxIDConservation(t *testing.T) {
	bothModes(t, func(t *testing.T, codec *Codec) {
		for k := 1; k <= 40; k += 3 {
			ids := make([]ID, k)
			for i := range ids {
				ids[i] = ID(i + 1)
			}
			got := map[ID]int{}
			simulateUpPush(t, int64(k), codec, ids, got)
			if len(got) != len(ids) {
				t.Fatalf("k=%d: %d distinct ids arrived, want %d", k, len(got), len(ids))
			}
			for _, id := range ids {
				if got[id] != 1 {
					t.Fatalf("k=%d: id %d arrived %d times", k, id, got[id])
				}
			}
		}
	})
}

// Property: Holder.Step conserves tokens over multi-round evolutions with
// multiple origins (movers are re-injected to keep the system closed).
func TestHolderMultiOriginConservation(t *testing.T) {
	prop := func(seed int64, a, b uint8) bool {
		rng := sim.NewRand(seed)
		ca, cb := 1+int(a)%200, 1+int(b)%200
		h := NewHolder()
		h.Add(1, 0, 4, ca)
		h.Add(2, 0, 6, cb)
		landed := 0
		for i := 0; i < 10 && !h.Empty(); i++ {
			h.Step(5, rng,
				func(port int, origin ID, phase, remaining, cnt int) {
					if remaining > 0 {
						h.Add(origin, phase, remaining, cnt)
					} else {
						landed += cnt
					}
				},
				func(origin ID, phase, cnt int) { landed += cnt })
		}
		return landed+h.Len() == ca+cb
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: DistributeUniform conserves the item count and never produces
// negative bins.
func TestDistributeUniformProperty(t *testing.T) {
	prop := func(seed int64, mRaw, dRaw uint8) bool {
		rng := sim.NewRand(seed)
		m := int(mRaw) % 500
		d := 1 + int(dRaw)%16
		out := DistributeUniform(rng, m, d)
		if len(out) != d {
			return false
		}
		total := 0
		for _, c := range out {
			if c < 0 {
				return false
			}
			total += c
		}
		return total == m
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: BinomialHalf stays within [0, n] and is deterministic per seed.
func TestBinomialHalfProperty(t *testing.T) {
	prop := func(seed int64, nRaw uint16) bool {
		n := int(nRaw) % 2000
		a := BinomialHalf(sim.NewRand(seed), n)
		b := BinomialHalf(sim.NewRand(seed), n)
		return a == b && a >= 0 && a <= n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
