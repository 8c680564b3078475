package core

import (
	"fmt"
	"testing"

	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/protocol"
	"wcle/internal/sim"
	"wcle/internal/spectral"
)

// flowID is one id on one directed edge within one (origin, phase,
// stage/op) tree flow.
type flowID struct {
	from, port int
	origin     protocol.ID
	phase      int
	down       bool
	sub        uint8 // UpStage or DownOp
	id         protocol.ID
}

// edgeIDObserver records every id each directed edge carries per flow and
// keeps the first repeats it sees.
type edgeIDObserver struct {
	seen    map[flowID]struct{}
	repeats []string
	msgs    int
}

func (o *edgeIDObserver) OnSend(round, from, fromPort, _, _ int, m sim.Message) {
	k := flowID{from: from, port: fromPort}
	var ids []protocol.ID
	switch msg := m.(type) {
	case *protocol.UpMsg:
		k.origin, k.phase, k.sub, ids = msg.Origin, msg.Phase, uint8(msg.Stage), msg.IDs
	case *protocol.DownMsg:
		k.origin, k.phase, k.down, k.sub, ids = msg.Origin, msg.Phase, true, uint8(msg.Op), msg.IDs
	default:
		return
	}
	o.msgs++
	for _, id := range ids {
		k.id = id
		if _, dup := o.seen[k]; dup && len(o.repeats) < 5 {
			o.repeats = append(o.repeats, fmt.Sprintf("round %d: %+v", round, k))
		}
		o.seen[k] = struct{}{}
	}
}

// TestNoEdgeCarriesAnIDTwice: over whole elections with no retransmission,
// no directed edge carries the same id twice for one (origin, phase,
// stage/op) flow. For convergecasts the outbox's per-edge filter enforces
// it (a node learns I3 ids from several children and from its own proxy
// snapshot); for downcasts the walk tree does, by relaying each id once per
// phase and replaying the prefix once to each new child. The check covers
// the fixed-walk and guess-and-double schedules, a slow mixer, the Lemma
// 12 large-message mode, and lossy, reordering delivery.
func TestNoEdgeCarriesAnIDTwice(t *testing.T) {
	rr8 := expander(t, 64, 8, 1)
	tmix, err := spectral.MixingTimeSampled(rr8, spectral.DefaultEps(rr8.N()), 1_000_000, []int{0, 21, 42})
	if err != nil {
		t.Fatal(err)
	}
	torus, err := graph.Torus2D(6, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name  string
		g     *graph.Graph
		fixed int
	}{
		{"rr8-64-fixed", rr8, 2 * tmix},
		{"rr8-128", expander(t, 128, 8, 2), 0},
		{"clique-48", clique(t, 48), 0},
		{"torus-6x6", torus, 0},
	}
	conds := []struct {
		name  string
		mode  protocol.Mode
		fault func() sim.FaultPlane
	}{
		{"perfect", protocol.ModeCongest, func() sim.FaultPlane { return nil }},
		{"drop+delay", protocol.ModeCongest, func() sim.FaultPlane {
			return sim.Compose(&sim.Drop{P: 0.05}, &sim.Delay{Max: 2})
		}},
		{"large", protocol.ModeLarge, func() sim.FaultPlane { return nil }},
	}
	for _, gc := range graphs {
		for _, c := range conds {
			t.Run(gc.name+"/"+c.name, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.FixedWalkLen = gc.fixed
				cfg.Mode = c.mode
				o := &edgeIDObserver{seen: make(map[flowID]struct{})}
				res, err := Run(gc.g, cfg, engine.Options{Seed: 7, Observer: o, Fault: c.fault(), LeanMetrics: true})
				if err != nil {
					t.Fatal(err)
				}
				if o.msgs == 0 {
					t.Fatal("no tree traffic observed")
				}
				if len(o.repeats) > 0 {
					t.Fatalf("an edge carried an id twice in one flow (%d tree messages, %d leaders): %v",
						o.msgs, len(res.Leaders), o.repeats)
				}
			})
		}
	}
}
