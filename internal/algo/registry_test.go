package algo_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"wcle/internal/algo"
	"wcle/internal/core"
	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/sim"
)

func TestRegistryNames(t *testing.T) {
	names := algo.Names()
	want := []string{algo.FloodMax, algo.GilbertRS18, algo.KPPRT}
	for _, w := range want {
		if !algo.Known(w) {
			t.Fatalf("backend %q not registered", w)
		}
	}
	if len(names) < len(want) {
		t.Fatalf("Names() = %v, want at least %v", names, want)
	}
	if algo.Resolve("") != algo.DefaultName {
		t.Fatal("empty name must resolve to the default backend")
	}
	if _, err := algo.New("no-such-algorithm", algo.Config{}); err == nil {
		t.Fatal("unknown backend must error")
	}
	for _, name := range want {
		a, err := algo.New(name, algo.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, a.Name())
		}
	}
}

// TestGilbertPartialConfigErrsLoudly pins the config contract: only an
// entirely zero Core section defaults; a partial one (here FixedWalkLen
// without C1/C2) must fail core's validation instead of silently running
// the default algorithm with the knob dropped.
func TestGilbertPartialConfigErrsLoudly(t *testing.T) {
	g, err := graph.Clique(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := algo.New(algo.GilbertRS18, algo.Config{Core: core.Config{FixedWalkLen: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(g, engine.Options{Seed: 1}); err == nil {
		t.Fatal("partial Core config must error, not silently default")
	}
}

// TestGilbertBackendMatchesCore pins the adapter: running the paper's
// algorithm through the registry must reproduce core.Run exactly.
func TestGilbertBackendMatchesCore(t *testing.T) {
	g, err := graph.RandomRegular(48, 8, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	a, err := algo.New(algo.GilbertRS18, algo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 3; seed++ {
		out, err := a.Run(g, engine.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Run(g, core.DefaultConfig(), engine.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out.Leaders, want.Leaders) ||
			out.Rounds != want.Rounds ||
			out.Metrics.Messages != want.Metrics.Messages ||
			out.Metrics.Bits != want.Metrics.Bits {
			t.Fatalf("seed %d: backend diverged from core.Run: %+v vs %+v", seed, out, want)
		}
		if _, ok := out.Detail.(*core.Result); !ok {
			t.Fatalf("Detail is %T, want *core.Result", out.Detail)
		}
	}
}

// TestBatchMatchesCoreRun pins the one batch loop against core.Run: trial
// i of a gilbertrs18 batch is the election core.Run holds at
// sim.DeriveSeed(seed, i) — same leader count, rounds, messages and
// contenders — and the batch totals are those elections summed.
func TestBatchMatchesCoreRun(t *testing.T) {
	g, err := graph.RandomRegular(48, 8, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	a, err := algo.New(algo.GilbertRS18, algo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const seed, trials = 42, 6
	got, err := algo.RunMany(g, a, engine.BatchOptions{
		Base: engine.Options{Seed: seed, LeanMetrics: true}, Trials: trials, Workers: 3, CollectTrials: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var bits int64
	for i := 0; i < trials; i++ {
		want, err := core.Run(g, core.DefaultConfig(), engine.Options{Seed: sim.DeriveSeed(seed, uint64(i)), LeanMetrics: true})
		if err != nil {
			t.Fatal(err)
		}
		bits += want.Metrics.Bits
		if int(got.TrialOutcomes[i]) != min(len(want.Leaders), 2) ||
			int(got.TrialRounds[i]) != want.Rounds ||
			got.TrialMessages[i] != want.Metrics.Messages ||
			int(got.TrialContenders[i]) != len(want.Contenders) {
			t.Fatalf("trial %d diverged from core.Run: outcome %d rounds %d msgs %d contenders %d; want leaders %v rounds %d msgs %d contenders %d",
				i, got.TrialOutcomes[i], got.TrialRounds[i], got.TrialMessages[i], got.TrialContenders[i],
				want.Leaders, want.Rounds, want.Metrics.Messages, len(want.Contenders))
		}
	}
	if got.Bits != bits {
		t.Fatalf("batch bits %d, core.Run elections sum to %d", got.Bits, bits)
	}
}

// TestBatchWorkerCountInvariance checks the batch contract on every
// backend: the per-trial vectors sum to the batch totals, sharding does
// not change what any trial saw, and the vectors stay nil unless
// CollectTrials asks for them.
func TestBatchWorkerCountInvariance(t *testing.T) {
	g, err := graph.Clique(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 6
	for _, name := range []string{algo.GilbertRS18, algo.GilbertRS18Fixed, algo.FloodMax, algo.KPPRT} {
		t.Run(name, func(t *testing.T) {
			a, err := algo.New(name, algo.Config{})
			if err != nil {
				t.Fatal(err)
			}
			run := func(workers int, collect bool) *algo.BatchResult {
				res, err := algo.RunMany(g, a, engine.BatchOptions{
					Base: engine.Options{Seed: 9, LeanMetrics: true}, Trials: trials, Workers: workers, CollectTrials: collect})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			res := run(3, true)
			if res.Protocol != name || res.Trials != trials {
				t.Fatalf("batch labelled %q with %d trials", res.Protocol, res.Trials)
			}
			if len(res.TrialOutcomes) != trials || len(res.TrialRounds) != trials ||
				len(res.TrialMessages) != trials || len(res.TrialContenders) != trials {
				t.Fatalf("per-trial vectors not collected: %+v", res)
			}
			var msgs, rounds int64
			var one, zero, multi, cont int
			for i := 0; i < trials; i++ {
				switch res.TrialOutcomes[i] {
				case 0:
					zero++
				case 1:
					one++
				default:
					multi++
				}
				msgs += res.TrialMessages[i]
				rounds += int64(res.TrialRounds[i])
				cont += int(res.TrialContenders[i])
			}
			if one != res.One || zero != res.Zero || multi != res.Multi {
				t.Fatalf("outcome vector disagrees with totals: %+v", res)
			}
			if msgs != res.Messages || rounds != res.Rounds || cont != res.Contenders {
				t.Fatalf("per-trial sums disagree with totals: %+v", res)
			}
			other := run(1, true)
			if !reflect.DeepEqual(res.TrialOutcomes, other.TrialOutcomes) ||
				!reflect.DeepEqual(res.TrialRounds, other.TrialRounds) ||
				!reflect.DeepEqual(res.TrialMessages, other.TrialMessages) ||
				!reflect.DeepEqual(res.TrialContenders, other.TrialContenders) {
				t.Fatal("worker count changed the trials")
			}
			plain := run(3, false)
			if plain.TrialOutcomes != nil || plain.TrialRounds != nil ||
				plain.TrialMessages != nil || plain.TrialContenders != nil {
				t.Fatalf("per-trial vectors should be nil without CollectTrials: %+v", plain)
			}
			if plain.One != res.One || plain.Messages != res.Messages {
				t.Fatal("CollectTrials changed the totals")
			}
		})
	}
}

// TestBatchRejectsSharedFault pins the batch loop's guard: a stateful
// fault plane shared across shards is a determinism bug, so Base.Fault is
// refused with a pointer to NewFault, which builds one plane per trial.
func TestBatchRejectsSharedFault(t *testing.T) {
	g, err := graph.Clique(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := algo.New(algo.FloodMax, algo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = algo.RunMany(g, a, engine.BatchOptions{
		Base: engine.Options{Seed: 1, Fault: &sim.Drop{P: 0.1}}, Trials: 4})
	if err == nil || !strings.Contains(err.Error(), "NewFault") {
		t.Fatalf("shared Base.Fault not rejected: %v", err)
	}
	res, err := algo.RunMany(g, a, engine.BatchOptions{
		Base:     engine.Options{Seed: 1},
		Trials:   4,
		NewFault: func(int) sim.FaultPlane { return &sim.Drop{P: 0.1} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 4 || res.One+res.Zero+res.Multi != 4 {
		t.Fatalf("batch outcome inconsistent: %+v", res)
	}
}

// TestKPPRTSublinearOnCliques spot-checks the headline property: the
// kpprt message count on cliques grows far slower than m.
func TestKPPRTSublinearOnCliques(t *testing.T) {
	a, err := algo.New(algo.KPPRT, algo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The gap widens with n (Theta(sqrt(n) log^{3/2} n) vs m = Theta(n^2)):
	// ~4x at n=64, ~16x at n=256.
	for _, c := range []struct{ n, factor int }{{64, 2}, {256, 8}} {
		g, err := graph.Clique(c.n, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := a.Run(g, engine.Options{Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		if out.Metrics.Messages*int64(c.factor) > int64(g.M()) {
			t.Fatalf("n=%d: %d messages vs m=%d — not sublinear", c.n, out.Metrics.Messages, g.M())
		}
	}
}
