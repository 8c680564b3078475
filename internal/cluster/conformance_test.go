package cluster

// The cluster transport as an algotest conformance target: the whole
// cross-backend invariant battery (one-leader, replay determinism,
// DebugFrom anonymity, message conservation) runs over loopback TCP, on a
// 3-shard cluster, for every registered backend. Excluded from -short:
// each assertion is a full wire-level election.

import (
	"reflect"
	"testing"

	"wcle/internal/algo"
	"wcle/internal/algo/algotest"
	"wcle/internal/core"
	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/serve"
)

// explicitSpec converts a built conformance graph into an explicit-edge
// GraphSpec. The cluster rebuilds the graph from the edge list with the
// spec's seed, deterministically — all shards and all replays see the
// identical port numbering, which is what the conformance invariants
// quantify over.
func explicitSpec(g *graph.Graph) serve.GraphSpec {
	edges := make([][2]int, 0, g.M())
	for _, e := range g.Edges() {
		edges = append(edges, [2]int{e.U, e.V})
	}
	return serve.GraphSpec{Family: "explicit", N: g.N(), Edges: edges, Seed: 1}
}

// clusterSpec maps the conformance-relevant backend knobs onto a JobSpec.
func clusterSpec(name string, cfg algo.Config, g *graph.Graph, opts engine.Options) JobSpec {
	spec := JobSpec{
		Graph:     explicitSpec(g),
		Algorithm: name,
		Seed:      opts.Seed,
		DebugFrom: opts.DebugFrom,
		MaxRounds: opts.MaxRounds,
		Resend:    cfg.Core.Resend,
		AssumedN:  cfg.Core.AssumedN,
		Horizon:   cfg.Horizon,
		Hops:      cfg.Sublinear.Hops,
		Window:    cfg.Sublinear.Window,
	}
	if !reflect.DeepEqual(cfg.Core, core.Config{}) {
		spec.C1 = cfg.Core.C1
		spec.C2 = cfg.Core.C2
		spec.MaxWalkLen = cfg.Core.MaxWalkLen
	}
	return spec
}

// clusterRunner adapts a Local cluster to the algotest Runner contract.
func clusterRunner(local *Local) algotest.Runner {
	return func(name string, cfg algo.Config, g *graph.Graph, opts engine.Options) (*algo.Outcome, error) {
		res, err := local.Elect(clusterSpec(name, cfg, g, opts))
		if err != nil {
			return nil, err
		}
		return &res.Outcome, nil
	}
}

// clusterFaultRunner is the FaultRunner analogue: the adversary ships in
// the JobSpec and every shard rebuilds it locally, sender-keyed.
func clusterFaultRunner(local *Local) algotest.FaultRunner {
	return func(name string, cfg algo.Config, g *graph.Graph, opts engine.Options, fault serve.FaultSpec) (*algo.Outcome, error) {
		spec := clusterSpec(name, cfg, g, opts)
		spec.Fault = fault
		res, err := local.Elect(spec)
		if err != nil {
			return nil, err
		}
		return &res.Outcome, nil
	}
}

func startConformanceCluster(t *testing.T) *Local {
	return startConformanceClusterWith(t, LocalOptions{})
}

func startConformanceClusterWith(t *testing.T, opt LocalOptions) *Local {
	t.Helper()
	if testing.Short() {
		t.Skip("runs full elections over loopback TCP; skipped in -short mode")
	}
	local, err := StartLocalWith(3, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := local.Close(); err != nil {
			t.Errorf("cluster shutdown: %v", err)
		}
	})
	return local
}

// lowerCompressionThreshold makes conformance-sized elections cross the
// compression gate so frameDataZ actually carries the battery.
func lowerCompressionThreshold(t *testing.T) {
	t.Helper()
	old := compressMinBytes
	compressMinBytes = 32
	t.Cleanup(func() { compressMinBytes = old })
}

// Per-graph configurations mirror the in-process conformance suite
// (internal/algo/conformance_test.go): regime knobs for poorly connected
// graphs, not special cases.

func TestClusterConformanceGilbertRS18(t *testing.T) {
	local := startConformanceCluster(t)
	algotest.ConformanceOn(t, algo.GilbertRS18, func(name string, g *graph.Graph) algo.Config {
		cfg := core.DefaultConfig()
		switch name {
		case "cycle12":
			cfg.C1 = 3
			cfg.MaxWalkLen = 1024
		case "torus4x4":
			cfg.MaxWalkLen = 1024
		}
		return algo.Config{Core: cfg}
	}, []int64{0, 1}, clusterRunner(local))
}

func TestClusterConformanceFloodMax(t *testing.T) {
	local := startConformanceCluster(t)
	algotest.ConformanceOn(t, algo.FloodMax, func(name string, g *graph.Graph) algo.Config {
		return algo.Config{}
	}, []int64{0, 1}, clusterRunner(local))
}

func TestClusterConformanceKPPRT(t *testing.T) {
	local := startConformanceCluster(t)
	algotest.ConformanceOn(t, algo.KPPRT, func(name string, g *graph.Graph) algo.Config {
		var sub algo.SublinearConfig
		switch name {
		case "cycle12":
			sub.Hops, sub.Window = 300, 2000
		case "torus4x4":
			sub.Hops = 100
		}
		return algo.Config{Sublinear: sub}
	}, []int64{0, 1}, clusterRunner(local))
}

// The fault-parity suite is the keystone contract extended to faulty
// runs: for every battery adversary, a cluster election over real TCP
// must be byte-identical — leaders, rounds, message counts, and the
// adversary's own drop/delay counters — to the in-process sim at the
// same seed. Shard-safe sender-keyed fault randomness is what makes
// this hold; these tests are the CI enforcement of that design.

func faultCfg(name string, g *graph.Graph) algo.Config { return algo.Config{} }

// explicitFaultRunner is the parity reference: the in-process sim over
// the same explicit-edge rebuild the cluster performs, so both sides see
// the identical port numbering.
func explicitFaultRunner(name string, cfg algo.Config, g *graph.Graph, opts engine.Options, fault serve.FaultSpec) (*algo.Outcome, error) {
	ge, err := explicitSpec(g).Build()
	if err != nil {
		return nil, err
	}
	return algotest.InProcessFaultRunner(name, cfg, ge, opts, fault)
}

func TestClusterFaultParityGilbertRS18(t *testing.T) {
	local := startConformanceCluster(t)
	algotest.FaultParityOn(t, algo.GilbertRS18, func(name string, g *graph.Graph) algo.Config {
		return algo.Config{Core: core.DefaultConfig()}
	}, []int64{1}, explicitFaultRunner, clusterFaultRunner(local))
}

func TestClusterFaultParityFloodMax(t *testing.T) {
	local := startConformanceCluster(t)
	algotest.FaultParityOn(t, algo.FloodMax, faultCfg, []int64{1},
		explicitFaultRunner, clusterFaultRunner(local))
}

func TestClusterFaultParityKPPRT(t *testing.T) {
	local := startConformanceCluster(t)
	algotest.FaultParityOn(t, algo.KPPRT, faultCfg, []int64{1},
		explicitFaultRunner, clusterFaultRunner(local))
}

// Compressed-session battery: the same conformance + fault-parity
// invariants with flate-compressed data frames, proving the codec is
// transparent to the determinism contract (not just to a happy-path
// election).

func TestClusterConformanceCompressed(t *testing.T) {
	lowerCompressionThreshold(t)
	local := startConformanceClusterWith(t, LocalOptions{Compress: true})
	algotest.ConformanceOn(t, algo.FloodMax, func(name string, g *graph.Graph) algo.Config {
		return algo.Config{}
	}, []int64{0, 1}, clusterRunner(local))
}

func TestClusterFaultParityCompressed(t *testing.T) {
	lowerCompressionThreshold(t)
	local := startConformanceClusterWith(t, LocalOptions{Compress: true})
	algotest.FaultParityOn(t, algo.FloodMax, faultCfg, []int64{1},
		explicitFaultRunner, clusterFaultRunner(local))
}

// Byzantine parity battery: the acceptance contract of the active
// adversary. Mutation runs at dispatch on the sender-hosting shard with
// sender-keyed randomness, so the forged bytes themselves cross the TCP
// links — a same-seed cluster run must be byte-identical to the
// in-process sim, forgery for forgery, with and without the committee
// defense.

func TestClusterByzantineParityFloodMax(t *testing.T) {
	local := startConformanceCluster(t)
	algotest.ByzantineParityOn(t, algo.FloodMax, faultCfg, []int64{1},
		explicitFaultRunner, clusterFaultRunner(local))
}

func TestClusterByzantineParityKPPRT(t *testing.T) {
	local := startConformanceCluster(t)
	algotest.ByzantineParityOn(t, algo.KPPRT, faultCfg, []int64{1},
		explicitFaultRunner, clusterFaultRunner(local))
}

// TestClusterByzantineConformance runs the full in-process Byzantine
// invariant battery (outcome discipline, honest pinned leaders, replay,
// anonymity) with the cluster as the delivery plane.
func TestClusterByzantineConformance(t *testing.T) {
	local := startConformanceCluster(t)
	algotest.ByzantineConformanceOn(t, algo.FloodMax, faultCfg, []int64{1}, clusterFaultRunner(local))
}
