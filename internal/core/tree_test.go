package core

import (
	"testing"

	"wcle/internal/graph"
	"wcle/internal/protocol"
	"wcle/internal/sim"
)

func TestTreeAddChildSortedAndDeduped(t *testing.T) {
	tr := newTree(1, 3, false)
	if !tr.addChild(5) || !tr.addChild(2) || !tr.addChild(9) {
		t.Fatal("fresh children rejected")
	}
	if tr.addChild(5) {
		t.Fatal("duplicate child accepted")
	}
	want := []int{2, 5, 9}
	if len(tr.children) != len(want) {
		t.Fatalf("children = %v", tr.children)
	}
	for i, p := range want {
		if tr.children[i] != p {
			t.Fatalf("children not sorted: %v", tr.children)
		}
	}
}

func TestTreeResetForPhase(t *testing.T) {
	tr := newTree(1, 3, false)
	tr.addChild(4)
	tr.proxyCount = 7
	tr.final = true
	tr.finalDown = true
	tr.winnerDown = true
	tr.winnerID = 42
	tr.storedI2.Add(8)
	tr.downX2.Add(9)

	tr.resetForPhase(2, 6, false)
	if tr.phase != 2 || tr.parentPort != 6 || tr.isRoot {
		t.Fatalf("reset basics wrong: %+v", tr)
	}
	if tr.final || tr.finalDown || tr.winnerDown || tr.winnerID != 0 {
		t.Fatal("control latches must clear on phase reset")
	}
	if tr.proxyCount != 0 || len(tr.children) != 0 {
		t.Fatal("per-phase registration state must clear")
	}
	if tr.downX2.Len() != 0 {
		t.Fatal("down-flood record must clear (new phase, new tree)")
	}
	// storedI2 persists across phases per the paper's "I2 sets received".
	if !tr.storedI2.Has(8) {
		t.Fatal("storedI2 must persist across phases")
	}
}

func TestDOf(t *testing.T) {
	// A proxy is distinct iff exactly one walk ended there.
	cases := map[int]int{0: 0, 1: 1, 2: 0, 5: 0}
	for count, want := range cases {
		if got := dOf(count); got != want {
			t.Fatalf("dOf(%d) = %d, want %d", count, got, want)
		}
	}
}

// stepProc runs a callback as a node's Step, handing it a live context.
type stepProc func(ctx *sim.Context) error

func (f stepProc) Step(ctx *sim.Context, _ []sim.Envelope) error { return f(ctx) }

// Id 0 names no node: a DownX2 and an UpX3 fragment carrying it reach a
// fresh tree of a proxy with a child, and nothing is stored or relayed
// for it. An honest id through the same tree is stored and relayed.
func TestZeroIDNeitherStoredNorRelayed(t *testing.T) {
	g, err := graph.Path(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Build(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	nd := inst.nodes[1] // port 0 leads to node 0, port 1 to node 2
	const origin = protocol.ID(77)
	var tr *tree
	idle := stepProc(func(*sim.Context) error { return nil })
	probe := stepProc(func(ctx *sim.Context) error {
		if ctx.Round() != 0 {
			return nil
		}
		tr = nd.addTree(origin, 0, 0, false)
		tr.proxyCount = 1
		tr.addChild(1)
		nd.onDown(ctx, &protocol.DownMsg{Origin: origin, Phase: 0, Op: protocol.DownX2, IDs: []protocol.ID{0}})
		nd.onUp(ctx, &protocol.UpMsg{Origin: origin, Phase: 0, Stage: protocol.UpX3, IDs: []protocol.ID{0}})
		if tr.downX2.Len() != 0 || tr.storedI2.Len() != 0 {
			t.Errorf("id 0 recorded: downX2 holds %d ids, storedI2 %d", tr.downX2.Len(), tr.storedI2.Len())
		}
		if n := nd.outbox.Pending(); n != 0 {
			t.Errorf("%d messages queued for id 0", n)
		}
		nd.onDown(ctx, &protocol.DownMsg{Origin: origin, Phase: 0, Op: protocol.DownX2, IDs: []protocol.ID{5}})
		if tr.downX2.Len() != 1 || tr.storedI2.Len() != 1 || nd.outbox.Pending() != 2 {
			t.Errorf("id 5: downX2 holds %d ids, storedI2 %d, %d messages queued; want 1, 1 and 2 (relay down, I3 up)",
				tr.downX2.Len(), tr.storedI2.Len(), nd.outbox.Pending())
		}
		return nil
	})
	if _, err := sim.Run(sim.Config{Graph: g, Seed: 1}, []sim.Process{idle, probe, idle}); err != nil {
		t.Fatal(err)
	}
	if tr == nil {
		t.Fatal("the probe never ran")
	}
}
