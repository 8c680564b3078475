package wcle_test

import (
	"testing"

	"wcle"
)

func TestPublicQuickstart(t *testing.T) {
	g, err := wcle.NewRandomRegular(64, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wcle.Elect(g, wcle.DefaultConfig(), wcle.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Leaders) > 1 {
		t.Fatalf("multiple leaders: %v", res.Leaders)
	}
	if res.Metrics.Messages == 0 {
		t.Fatal("no messages recorded")
	}
}

func TestPublicGraphBuilders(t *testing.T) {
	if _, err := wcle.NewClique(8, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := wcle.NewCycle(8, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := wcle.NewHypercube(3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := wcle.NewTorus(3, 4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := wcle.NewRandomRegular(16, 4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := wcle.NewLowerBoundGraph(512, 1.0/196, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := wcle.NewDumbbell(16, 4, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := wcle.NewDumbbellCliques(8, 1); err != nil {
		t.Fatal(err)
	}
}

func TestPublicSpectral(t *testing.T) {
	g, err := wcle.NewClique(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := wcle.MixingTime(g, 1000)
	if err != nil || tm < 1 {
		t.Fatalf("MixingTime = %d, %v", tm, err)
	}
	tms, err := wcle.MixingTimeSampled(g, 1000, []int{0})
	if err != nil || tms != tm {
		t.Fatalf("sampled %d != exact %d (%v)", tms, tm, err)
	}
	lam, err := wcle.Lambda2(g)
	if err != nil || lam <= 0 || lam >= 1 {
		t.Fatalf("Lambda2 = %v, %v", lam, err)
	}
	lo, hi := wcle.CheegerBounds(lam)
	phi, err := wcle.Conductance(g)
	if err != nil {
		t.Fatal(err)
	}
	if phi < lo-1e-9 || phi > hi+1e-9 {
		t.Fatalf("phi %v outside Cheeger [%v, %v]", phi, lo, hi)
	}
	sweep, err := wcle.SweepConductance(g)
	if err != nil || sweep < phi-1e-9 {
		t.Fatalf("sweep %v below exact %v (%v)", sweep, phi, err)
	}
}

func TestPublicExplicit(t *testing.T) {
	g, err := wcle.NewClique(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wcle.ElectExplicit(g, wcle.DefaultConfig(), wcle.Options{Seed: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Implicit == nil {
		t.Fatal("missing implicit result")
	}
	if len(res.Implicit.Leaders) == 1 {
		if !res.AllInformed {
			t.Fatal("explicit election should inform everyone")
		}
		if res.TotalMessages <= res.Implicit.Metrics.Messages {
			t.Fatal("broadcast messages not accounted")
		}
	}
}

func TestPublicBaselines(t *testing.T) {
	g, err := wcle.NewHypercube(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := wcle.FloodMax(g, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fm.Leaders) != 1 {
		t.Fatalf("floodmax leaders = %v", fm.Leaders)
	}
	bt, err := wcle.BFSTree(g, 0, 1)
	if err != nil || !bt.Complete {
		t.Fatalf("bfs tree: %v, complete=%v", err, bt.Complete)
	}
	pp, err := wcle.PushPull(g, wcle.PushPullOptions{Rumor: 9, Seed: 1, Horizon: 64})
	if err != nil || !pp.AllInformed {
		t.Fatalf("push-pull: %v, informed=%d", err, pp.Informed)
	}
}

// TestPublicRun: the protocol-generic entry point runs elections and
// non-election protocols alike, and the election path agrees with the
// deprecated backend-native route at the same seed.
func TestPublicRun(t *testing.T) {
	g, err := wcle.NewRandomRegular(32, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Non-election protocol: no Election summary, per-node outputs filled.
	rep, err := wcle.Run("pushpull", g, wcle.ProtocolConfig{Rumor: 9, Horizon: 64}, wcle.AlgorithmOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Election != nil {
		t.Fatal("pushpull should not produce an election summary")
	}
	if len(rep.Result.Outputs) != g.N() || len(rep.Result.PerNodeMessages) != g.N() {
		t.Fatalf("report shape: %d outputs, %d counts", len(rep.Result.Outputs), len(rep.Result.PerNodeMessages))
	}
	for v, o := range rep.Result.Outputs {
		if len(o) != len(rep.Result.Slots) {
			t.Fatalf("node %d output %v does not match slots %v", v, o, rep.Result.Slots)
		}
	}
	// Default protocol is the paper's election backend.
	erep, err := wcle.Run("", g, wcle.ProtocolConfig{}, wcle.AlgorithmOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if erep.Election == nil {
		t.Fatal("election protocol should produce an election summary")
	}
	if erep.Result.Protocol != wcle.DefaultAlgorithm() {
		t.Fatalf("default protocol = %q", erep.Result.Protocol)
	}
	old, err := wcle.ElectWith("", g, wcle.AlgorithmConfig{}, wcle.AlgorithmOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if erep.Election.Success != old.Success || erep.Election.Rounds != old.Rounds ||
		erep.Election.Metrics.Messages != old.Metrics.Messages {
		t.Fatalf("Run vs ElectWith diverged: %+v vs %+v", erep.Election, old)
	}
	if _, err := wcle.Run("no-such-protocol", g, wcle.ProtocolConfig{}, wcle.AlgorithmOptions{}); err == nil {
		t.Fatal("unknown protocol should fail")
	}
}

func TestPublicRunMany(t *testing.T) {
	g, err := wcle.NewClique(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := wcle.RunMany("bfstree", g, wcle.ProtocolConfig{}, wcle.ProtocolBatchOptions{
		Trials: 4,
		Base:   wcle.ProtocolOptions{Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Trials != 4 {
		t.Fatalf("trials = %d", batch.Trials)
	}
	if len(wcle.Protocols()) < len(wcle.Algorithms())+3 {
		t.Fatalf("protocol registry %v missing substrates", wcle.Protocols())
	}
}

func TestPublicExperiments(t *testing.T) {
	ids := wcle.ExperimentIDs()
	if len(ids) != 22 {
		t.Fatalf("experiment ids = %v", ids)
	}
	tab, err := wcle.RunExperiment("E3", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("E3 produced no rows")
	}
	if _, err := wcle.RunExperiment("E99", 1, true); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

// ElectManyWith on the default backend aggregates a deterministic batch:
// outcome counts are identical whatever the worker count, and a fault
// plane threads through the facade.
func TestElectManyDeterministicAcrossWorkers(t *testing.T) {
	g, err := wcle.NewRandomRegular(32, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *wcle.AlgorithmBatchResult {
		res, err := wcle.ElectManyWith(wcle.DefaultAlgorithm(), g, wcle.AlgorithmConfig{Core: wcle.DefaultConfig()}, wcle.AlgorithmBatchOptions{
			Base:    wcle.Options{Seed: 11, LeanMetrics: true},
			Trials:  4,
			Workers: workers,
			NewFault: func(int) wcle.FaultPlane {
				return wcle.ComposeFaults(&wcle.Drop{P: 0.02}, &wcle.Delay{Max: 1})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(3)
	if a.Trials != 4 || a.One+a.Zero+a.Multi != 4 {
		t.Fatalf("outcome counts inconsistent: %+v", a)
	}
	if a.One != b.One || a.Zero != b.Zero || a.Multi != b.Multi ||
		a.Messages != b.Messages || a.FaultDrops != b.FaultDrops || a.Delayed != b.Delayed {
		t.Fatalf("worker count changed batch results:\n1 worker  %+v\n3 workers %+v", a, b)
	}
	if a.FaultDrops == 0 && a.Delayed == 0 {
		t.Fatal("fault plane did not intervene (suspicious for 4 elections at 2% drop)")
	}
	if a.RunsPerSec <= 0 || len(a.Shards) == 0 {
		t.Fatalf("throughput/shard stats missing: %+v", a)
	}
}

// TestElectWithBackends drives every registered backend through the
// facade on one clique and cross-checks that Elect (the default route)
// matches ElectWith("gilbertrs18") exactly.
func TestElectWithBackends(t *testing.T) {
	g, err := wcle.NewClique(32, 1)
	if err != nil {
		t.Fatal(err)
	}
	algos := wcle.Algorithms()
	if len(algos) < 3 {
		t.Fatalf("registered backends = %v, want at least 3", algos)
	}
	for _, name := range algos {
		out, err := wcle.ElectWith(name, g, wcle.AlgorithmConfig{}, wcle.AlgorithmOptions{Seed: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Algorithm != name || len(out.Leaders) > 1 {
			t.Fatalf("%s: outcome %+v", name, out)
		}
	}
	res, err := wcle.Elect(g, wcle.DefaultConfig(), wcle.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	out, err := wcle.ElectWith(wcle.DefaultAlgorithm(), g, wcle.AlgorithmConfig{}, wcle.AlgorithmOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Leaders) != len(out.Leaders) || res.Metrics.Messages != out.Metrics.Messages {
		t.Fatalf("Elect and ElectWith(default) diverged: %+v vs %+v", res, out)
	}
	if _, err := wcle.ElectWith("paxos", g, wcle.AlgorithmConfig{}, wcle.AlgorithmOptions{Seed: 1}); err == nil {
		t.Fatal("unknown backend must error")
	}
}

// TestElectManyWithBackends runs a floodmax batch through the facade's
// generic batch path.
func TestElectManyWithBackends(t *testing.T) {
	g, err := wcle.NewClique(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wcle.ElectManyWith("floodmax", g, wcle.AlgorithmConfig{}, wcle.AlgorithmBatchOptions{
		Base: wcle.AlgorithmOptions{Seed: 5}, Trials: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol != "floodmax" || res.One != 5 {
		t.Fatalf("floodmax batch: %+v", res)
	}
}
