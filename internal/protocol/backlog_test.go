package protocol

import (
	"testing"

	"wcle/internal/sim"
)

// A standing backlog must reuse its FIFO's storage: a port that always has
// messages waiting, as in every saturated round of an election, must not
// grow its backing array with every message pushed. The port holds a
// steady backlog for thousands of rounds here, and its capacity must stay
// within twice the peak backlog.
func TestOutboxBacklogStorageBounded(t *testing.T) {
	const rounds, backlog = 4000, 16
	// One more token batch each round (distinct remaining counts never
	// merge) against one send: the port queue never drains.
	load := func(ob *Outbox, h Handle, round int) {
		n := 1
		if round == 0 {
			n = backlog
		}
		for i := 0; i < n; i++ {
			ob.PushToken(0, h, 1, round*backlog+i, 1)
		}
	}
	t.Run("port", func(t *testing.T) {
		bothModes(t, func(t *testing.T, codec *Codec) {
			ob := NewOutbox(codec, 1)
			h := ob.NewHandle(9)
			peak, maxCap := 0, 0
			sender := &stepFunc{fn: func(ctx *sim.Context, inbox []sim.Envelope) error {
				if ctx.Round() < rounds {
					load(ob, h, ctx.Round())
				}
				peak = max(peak, ob.pending)
				if err := ob.Flush(ctx, 0); err != nil {
					return err
				}
				maxCap = max(maxCap, len(ob.ports[0].q.buf))
				if ctx.Round() < rounds || ob.Pending() > 0 {
					ctx.WakeAt(ctx.Round() + 1)
				}
				return nil
			}}
			cfg := sim.Config{Graph: cliqueOf2(t), Seed: 1, MaxMessageBits: codec.Cap()}
			if _, err := sim.Run(cfg, []sim.Process{sender, &flushProc{}}); err != nil {
				t.Fatal(err)
			}
			t.Logf("peak backlog %d, largest capacity %d", peak, maxCap)
			if peak < backlog || peak > 2*backlog {
				t.Fatalf("peak backlog %d; the case should hold about %d", peak, backlog)
			}
			if maxCap > 2*peak {
				t.Fatalf("storage reached %d over %d rounds with a peak backlog of %d", maxCap, rounds, peak)
			}
		})
	})
}
