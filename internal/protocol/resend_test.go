package protocol

import (
	"testing"

	"wcle/internal/sim"
)

// runOutboxResend is runOutbox with a configurable Resend.
func runOutboxResend(t *testing.T, codec *Codec, resend int, load func(*Outbox)) (sim.Metrics, []sim.Envelope) {
	t.Helper()
	g := cliqueOf2(t)
	ob := NewOutbox(codec, 1)
	ob.Resend = resend
	sender := &flushProc{ob: ob, load: load}
	receiver := &flushProc{}
	m, err := sim.Run(sim.Config{Graph: g, Seed: 1, MaxMessageBits: codec.Cap()}, []sim.Process{sender, receiver})
	if err != nil {
		t.Fatal(err)
	}
	return m, receiver.got
}

// Resend retransmits idempotent messages (downcasts, delta-free ups) the
// configured number of extra times, after fresh traffic; token batches and
// delta-carrying fragments go out exactly once.
func TestOutboxResendIdempotentOnly(t *testing.T) {
	codec, err := NewCodec(64, ModeCongest)
	if err != nil {
		t.Fatal(err)
	}
	m, got := runOutboxResend(t, codec, 2, func(ob *Outbox) {
		h := ob.NewHandle()
		ob.PushDown(0, h, 9, 1, DownX2, []ID{4})   // idempotent: 1 + 2 resends
		ob.PushUp(0, h, 9, 1, UpX1, nil, 3, 1)     // delta-carrying: exactly once
		ob.PushToken(0, 9, 1, 5, 10)               // tokens: exactly once
		ob.PushUp(0, h, 9, 1, UpX3, []ID{7}, 0, 0) // idempotent: 1 + 2 resends
	})
	// 2 idempotent messages * 3 transmissions + 2 one-shot messages.
	if m.Messages != 8 {
		t.Fatalf("messages = %d, want 8 (2*3 + 2)", m.Messages)
	}
	var downs, tokens, upX1, upX3 int
	for _, env := range got {
		switch msg := env.Payload.(type) {
		case *DownMsg:
			downs++
			if len(msg.IDs) != 1 || msg.IDs[0] != 4 {
				t.Fatalf("retransmitted down fragment corrupted: %+v", msg)
			}
		case *TokenMsg:
			tokens++
			if msg.Count != 10 {
				t.Fatalf("token batch corrupted: %+v", msg)
			}
		case *UpMsg:
			switch msg.Stage {
			case UpX1:
				upX1++
				if msg.DDelta != 3 || msg.PDelta != 1 {
					t.Fatalf("X1 deltas corrupted: %+v", msg)
				}
			case UpX3:
				upX3++
				if len(msg.IDs) != 1 || msg.IDs[0] != 7 {
					t.Fatalf("retransmitted X3 fragment corrupted: %+v", msg)
				}
			}
		}
	}
	if downs != 3 || upX3 != 3 || upX1 != 1 || tokens != 1 {
		t.Fatalf("transmissions: downs=%d upX3=%d upX1=%d tokens=%d, want 3/3/1/1",
			downs, upX3, upX1, tokens)
	}
}

// With Resend = 0 (the default) nothing is duplicated: the pre-refactor
// single-transmission behavior.
func TestOutboxResendOffByDefault(t *testing.T) {
	codec, err := NewCodec(64, ModeCongest)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := runOutboxResend(t, codec, 0, func(ob *Outbox) {
		h := ob.NewHandle()
		ob.PushDown(0, h, 9, 1, DownX2, []ID{4})
		ob.PushUp(0, h, 9, 1, UpX3, []ID{7}, 0, 0)
	})
	if m.Messages != 2 {
		t.Fatalf("messages = %d, want 2", m.Messages)
	}
}

// Pending must report owed retransmissions so nodes keep waking to drain
// them (quiescence would otherwise strand the resend queue).
func TestOutboxPendingIncludesResends(t *testing.T) {
	codec, err := NewCodec(64, ModeCongest)
	if err != nil {
		t.Fatal(err)
	}
	g := cliqueOf2(t)
	ob := NewOutbox(codec, 1)
	ob.Resend = 1
	h := ob.NewHandle()
	loaded := false
	flushes := 0
	sender := processAdapter{fn: func(ctx *sim.Context, inbox []sim.Envelope) error {
		if !loaded {
			loaded = true
			ob.PushDown(0, h, 9, 1, DownFinal, nil)
		}
		if err := ob.Flush(ctx, 0); err != nil {
			return err
		}
		flushes++
		if ob.Pending() > 0 {
			ctx.WakeAt(ctx.Round() + 1)
		}
		return nil
	}}
	m, err := sim.Run(sim.Config{Graph: g, Seed: 1}, []sim.Process{sender, processAdapter{fn: func(*sim.Context, []sim.Envelope) error { return nil }}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Messages != 2 {
		t.Fatalf("messages = %d, want original + 1 resend", m.Messages)
	}
	if flushes < 2 {
		t.Fatalf("sender flushed %d times; Pending must keep it awake for the resend", flushes)
	}
}

type processAdapter struct {
	fn func(*sim.Context, []sim.Envelope) error
}

func (p processAdapter) Step(ctx *sim.Context, inbox []sim.Envelope) error { return p.fn(ctx, inbox) }

// A standing backlog must reuse its FIFO's storage: a port that always has
// messages waiting, as in every saturated round of an election, must not
// grow its backing array with every message pushed. Both FIFOs hold a
// steady backlog for thousands of rounds here, and their capacity must
// stay within twice the peak backlog.
func TestOutboxBacklogStorageBounded(t *testing.T) {
	const rounds, backlog = 4000, 16
	codec, err := NewCodec(64, ModeCongest)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		resend int
		// load queues the round's fresh traffic.
		load func(ob *Outbox, h Handle, round int)
		// held is the backlog the case holds, capacity the FIFO's backing
		// array.
		held, capacity func(ob *Outbox) int
	}{
		{
			// One more token batch each round (distinct origins never
			// merge) against one send: the port queue never drains.
			name: "port",
			load: func(ob *Outbox, _ Handle, round int) {
				n := 1
				if round == 0 {
					n = backlog
				}
				for i := 0; i < n; i++ {
					ob.PushToken(0, ID(1000+round*backlog+i), 1, 3, 1)
				}
			},
			held:     func(ob *Outbox) int { return ob.pending },
			capacity: func(ob *Outbox) int { return len(ob.ports[0].q.buf) },
		},
		{
			// After a burst, one fresh downcast every other round: the
			// fresh one goes out on its round and owes one resend, and the
			// idle round in between repays one, so the resend queue never
			// drains.
			name:   "resend",
			resend: 1,
			load: func(ob *Outbox, h Handle, round int) {
				switch {
				case round == 0:
					ids := make([]ID, backlog)
					for i := range ids {
						ids[i] = ID(1 + i)
					}
					ob.PushDown(0, h, 9, 1, DownX2, ids)
				case round > backlog && round%2 == 0:
					ob.PushDown(0, h, 9, 1, DownX2, []ID{ID(1 + backlog + round)})
				}
			},
			held:     func(ob *Outbox) int { return ob.resends },
			capacity: func(ob *Outbox) int { return len(ob.ports[0].resend.buf) },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ob := NewOutbox(codec, 1)
			ob.Resend = c.resend
			h := ob.NewHandle()
			peak, maxCap := 0, 0
			sender := &stepFunc{fn: func(ctx *sim.Context, inbox []sim.Envelope) error {
				if ctx.Round() < rounds {
					c.load(ob, h, ctx.Round())
				}
				peak = max(peak, c.held(ob))
				if err := ob.Flush(ctx, 0); err != nil {
					return err
				}
				maxCap = max(maxCap, c.capacity(ob))
				if ctx.Round() < rounds || ob.Pending() > 0 {
					ctx.WakeAt(ctx.Round() + 1)
				}
				return nil
			}}
			if _, err := sim.Run(sim.Config{Graph: cliqueOf2(t), Seed: 1}, []sim.Process{sender, &flushProc{}}); err != nil {
				t.Fatal(err)
			}
			t.Logf("peak backlog %d, largest capacity %d", peak, maxCap)
			if peak < backlog || peak > 2*backlog {
				t.Fatalf("peak backlog %d; the case should hold about %d", peak, backlog)
			}
			if maxCap > 2*peak {
				t.Fatalf("FIFO capacity reached %d over %d rounds with a peak backlog of %d", maxCap, rounds, peak)
			}
		})
	}
}
