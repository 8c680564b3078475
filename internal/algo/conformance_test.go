package algo_test

import (
	"testing"

	"wcle/internal/algo"
	"wcle/internal/algo/algotest"
	"wcle/internal/engine"
	"wcle/internal/graph"
)

// The cross-backend conformance suite: every registered backend must
// elect exactly one leader, replay deterministically, ignore DebugFrom
// (anonymity), and conserve messages on the cycle/torus/expander/clique
// battery. Per-graph configuration reflects each protocol's documented
// regime knobs, not special-casing: GilbertRS18 needs a walk-length cap
// above the graph's mixing time, KPPRT needs referee-sampling walks of
// mixing length (and a window wide enough for the cycle's congestion).

func TestConformanceGilbertRS18(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full elections on four graphs; skipped in -short mode")
	}
	algotest.Conformance(t, algo.GilbertRS18, func(name string, g *graph.Graph) engine.Config {
		var cfg engine.Config
		switch name {
		case "cycle12":
			// At n=12 the default C1=6 makes the intersection threshold
			// (3/4 C1 ln n = 12) exceed the 11 other nodes — unsatisfiable;
			// and the 12-cycle mixes in Theta(n^2) rounds, beyond the
			// default 4n walk-length cap.
			cfg.C1 = 3
			cfg.MaxWalkLen = 1024
		case "torus4x4":
			cfg.MaxWalkLen = 1024
		}
		return cfg
	}, []int64{0, 1, 2})
}

func TestConformanceFloodMax(t *testing.T) {
	algotest.Conformance(t, algo.FloodMax, defaultCfg, []int64{0, 1, 2})
}

func TestConformanceKPPRT(t *testing.T) {
	algotest.Conformance(t, algo.KPPRT, func(name string, g *graph.Graph) engine.Config {
		var cfg engine.Config
		switch name {
		case "cycle12":
			// tmix of the 12-cycle's lazy walk is Theta(n^2); the wide
			// window absorbs the congestion of routing every committee
			// through two directed edges per cut.
			cfg.Hops, cfg.Window = 300, 2000
		case "torus4x4":
			cfg.Hops = 100 // tmix is Theta(side^2)
		}
		return cfg
	}, []int64{0, 1, 2})
}

// The fault battery: the same backends under delivery-plane adversaries
// (drop, delay, crash, partition, composed). Elections may fail under
// faults; what must hold is determinism, anonymity, and the accounting
// identity (sends = deliveries + fault drops). The well-connected graphs
// need no regime knobs.

func defaultCfg(name string, g *graph.Graph) engine.Config { return engine.Config{} }

func TestFaultConformanceGilbertRS18(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full elections under five adversaries; skipped in -short mode")
	}
	algotest.FaultConformance(t, algo.GilbertRS18, defaultCfg, []int64{0, 1, 2})
}

func TestFaultConformanceFloodMax(t *testing.T) {
	algotest.FaultConformance(t, algo.FloodMax, defaultCfg, []int64{0, 1, 2})
}

func TestFaultConformanceKPPRT(t *testing.T) {
	algotest.FaultConformance(t, algo.KPPRT, defaultCfg, []int64{0, 1, 2})
}

// The Byzantine battery: the same backends under an active adversary
// whose every send is mutated in transit (sampled, pinned, and composed
// with drops). Elections may abort; what must hold is outcome discipline,
// honest leadership on pinned cases, determinism, anonymity, and the
// mutation-extended accounting identity.

func TestByzantineConformanceGilbertRS18(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full elections under three adversaries; skipped in -short mode")
	}
	algotest.ByzantineConformance(t, algo.GilbertRS18, defaultCfg, []int64{0, 1, 2})
}

func TestByzantineConformanceFloodMax(t *testing.T) {
	algotest.ByzantineConformance(t, algo.FloodMax, defaultCfg, []int64{0, 1, 2})
}

func TestByzantineConformanceKPPRT(t *testing.T) {
	algotest.ByzantineConformance(t, algo.KPPRT, defaultCfg, []int64{0, 1, 2})
}
