package core

import (
	"math/rand"
	"testing"

	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/protocol"
	"wcle/internal/sim"
)

// congestAuditor asserts the CONGEST discipline over an entire run: at most
// one message per (round, sender, port), and every message within the bit
// cap for the declared mode.
type congestAuditor struct {
	cap       int
	seen      map[[3]int]struct{}
	violation string
}

func (a *congestAuditor) OnSend(round int, from, fromPort, to, toPort int, m sim.Message) {
	key := [3]int{round, from, fromPort}
	if _, dup := a.seen[key]; dup {
		a.violation = "duplicate send on a port within one round"
		return
	}
	a.seen[key] = struct{}{}
	if m.Bits() > a.cap {
		a.violation = "message exceeds bit cap"
	}
	if m.Bits() <= 0 {
		a.violation = "message with non-positive size"
	}
}

func TestCongestDisciplineFullRun(t *testing.T) {
	g, err := graph.RandomRegular(64, 6, rand.New(rand.NewSource(14)))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []protocol.Mode{protocol.ModeCongest, protocol.ModeLarge} {
		codec, err := protocol.NewCodec(g.N(), mode)
		if err != nil {
			t.Fatal(err)
		}
		auditor := &congestAuditor{cap: codec.Cap(), seen: make(map[[3]int]struct{})}
		cfg := DefaultConfig()
		cfg.Mode = mode
		res, err := Run(g, cfg, engine.Options{Seed: 6, Observer: auditor})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if auditor.violation != "" {
			t.Fatalf("mode %v: CONGEST violation: %s", mode, auditor.violation)
		}
		if int64(len(auditor.seen)) != res.Metrics.Messages {
			t.Fatalf("mode %v: audited %d sends, metrics %d", mode, len(auditor.seen), res.Metrics.Messages)
		}
	}
}

// TestBitAccountingScalesWithMode: large mode messages carry more bits each
// but fewer total messages; total information moved should be comparable.
func TestBitAccountingScalesWithMode(t *testing.T) {
	g, err := graph.Clique(32, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode protocol.Mode) *Result {
		cfg := DefaultConfig()
		cfg.Mode = mode
		res, err := Run(g, cfg, engine.Options{Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	congest := run(protocol.ModeCongest)
	large := run(protocol.ModeLarge)
	avgC := float64(congest.Metrics.Bits) / float64(congest.Metrics.Messages)
	avgL := float64(large.Metrics.Bits) / float64(large.Metrics.Messages)
	if avgL <= avgC {
		t.Fatalf("large-mode messages should be bigger on average: %v vs %v", avgL, avgC)
	}
	if large.Metrics.Messages >= congest.Metrics.Messages {
		t.Fatalf("large mode should use fewer messages: %d vs %d",
			large.Metrics.Messages, congest.Metrics.Messages)
	}
}
