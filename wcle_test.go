package wcle_test

import (
	"fmt"
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
	// A negative horizon is an error, not the protocol's n-round default;
	// bad sources and roots are refused too.
	if _, err := wcle.PushPull(g, wcle.PushPullOptions{Horizon: -1}); err == nil {
		t.Fatal("negative push-pull horizon should fail")
	}
	if _, err := wcle.PushPull(g, wcle.PushPullOptions{Source: g.N()}); err == nil {
		t.Fatal("push-pull source out of range should fail")
	}
	if _, err := wcle.BFSTree(g, -1, 1); err == nil {
		t.Fatal("bfs tree root out of range should fail")
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
	res, err := wcle.Elect(g, wcle.DefaultConfig(), wcle.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if erep.Election.Success != res.Success || erep.Election.Rounds != res.Rounds ||
		erep.Election.Metrics.Messages != res.Metrics.Messages {
		t.Fatalf("Run vs Elect diverged: %+v vs %+v", erep.Election, res)
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

// RunMany on the default backend is a deterministic batch: every total
// and per-trial vector is identical whatever the worker count, and a fault
// plane threads through the facade.
func TestElectManyDeterministicAcrossWorkers(t *testing.T) {
	g, err := wcle.NewRandomRegular(32, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *wcle.ProtocolBatchResult {
		res, err := wcle.RunMany(wcle.DefaultAlgorithm(), g, wcle.ProtocolConfig{}, wcle.ProtocolBatchOptions{
			Base:          wcle.Options{Seed: 11, LeanMetrics: true},
			Trials:        4,
			Workers:       workers,
			CollectTrials: true,
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
	if a.Protocol != wcle.DefaultAlgorithm() || a.Trials != 4 || len(a.TrialMessages) != 4 {
		t.Fatalf("batch shape inconsistent: %+v", a)
	}
	if a.Messages != b.Messages || a.Rounds != b.Rounds || a.FaultDrops != b.FaultDrops || a.Delayed != b.Delayed ||
		fmt.Sprint(a.TrialMessages, a.TrialRounds) != fmt.Sprint(b.TrialMessages, b.TrialRounds) {
		t.Fatalf("worker count changed batch results:\n1 worker  %+v\n3 workers %+v", a, b)
	}
	if a.FaultDrops == 0 && a.Delayed == 0 {
		t.Fatal("fault plane did not intervene (suspicious for 4 elections at 2% drop)")
	}
	if a.RunsPerSec <= 0 || len(a.Shards) == 0 {
		t.Fatalf("throughput/shard stats missing: %+v", a)
	}
}

// TestRunBackends drives every registered backend through the facade on
// one clique and cross-checks that Elect (the paper's typed route)
// matches Run(DefaultAlgorithm()) exactly.
func TestRunBackends(t *testing.T) {
	g, err := wcle.NewClique(32, 1)
	if err != nil {
		t.Fatal(err)
	}
	algos := wcle.Algorithms()
	if len(algos) < 3 {
		t.Fatalf("registered backends = %v, want at least 3", algos)
	}
	for _, name := range algos {
		rep, err := wcle.Run(name, g, wcle.ProtocolConfig{}, wcle.AlgorithmOptions{Seed: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out := rep.Election; out == nil || out.Algorithm != name || len(out.Leaders) > 1 {
			t.Fatalf("%s: outcome %+v", name, out)
		}
	}
	res, err := wcle.Elect(g, wcle.DefaultConfig(), wcle.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := wcle.Run(wcle.DefaultAlgorithm(), g, wcle.ProtocolConfig{}, wcle.AlgorithmOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if out := rep.Election; fmt.Sprint(res.Leaders) != fmt.Sprint(out.Leaders) ||
		res.Metrics.Messages != out.Metrics.Messages || res.Rounds != out.Rounds {
		t.Fatalf("Elect and Run(default) diverged: %+v vs %+v", res, out)
	}
	if _, err := wcle.Run("paxos", g, wcle.ProtocolConfig{}, wcle.AlgorithmOptions{Seed: 1}); err == nil {
		t.Fatal("unknown backend must error")
	}
}

// TestRunManyBackends runs a floodmax batch through the facade's generic
// batch path: its totals are the per-trial vectors summed.
func TestRunManyBackends(t *testing.T) {
	g, err := wcle.NewClique(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wcle.RunMany("floodmax", g, wcle.ProtocolConfig{}, wcle.ProtocolBatchOptions{
		Base: wcle.AlgorithmOptions{Seed: 5}, Trials: 5, CollectTrials: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol != "floodmax" || res.Trials != 5 || len(res.TrialMessages) != 5 {
		t.Fatalf("floodmax batch: %+v", res)
	}
	var msgs int64
	for _, m := range res.TrialMessages {
		msgs += m
	}
	if msgs == 0 || msgs != res.Messages {
		t.Fatalf("floodmax batch: trials sum to %d messages, total %d", msgs, res.Messages)
	}
}
