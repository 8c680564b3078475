package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"wcle/internal/graph"
)

// exactSeeds are the seeds NewRand must match math/rand on: the edges of
// math/rand's seed reduction, the int64 extremes, and a spread of derived
// seeds.
func exactSeeds() []int64 {
	const p = 1<<31 - 1
	seeds := []int64{0, 1, -1, p, -p, 2 * p, -2 * p, p - 1, p + 1, -(p + 1),
		89482311, -89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for i := uint64(0); len(seeds) < 220; i++ {
		seeds = append(seeds, DeriveSeed(7, i))
		if i%8 == 0 {
			seeds = append(seeds, int64(i)*p/3-int64(i))
		}
	}
	return seeds
}

// mixedDraws makes the same ops draws on want and got, choosing each op
// with pick, and reports the first draw where they differ.
func mixedDraws(pick, want, got *Rand, ops int) error {
	for k := 0; k < ops; k++ {
		var a, b any
		switch op := pick.Intn(7); op {
		case 0:
			a, b = want.Uint64(), got.Uint64()
		case 1:
			a, b = want.Int63(), got.Int63()
		case 2:
			n := int32(1 + pick.Intn(1<<30))
			a, b = want.Int31n(n), got.Int31n(n)
		case 3:
			n := 1 + pick.Intn(1000)
			a, b = want.Intn(n), got.Intn(n)
		case 4:
			a, b = want.Float64(), got.Float64()
		case 5:
			n := pick.Intn(20)
			a, b = want.Perm(n), got.Perm(n)
		case 6:
			n := pick.Intn(20)
			x, y := make([]int, n), make([]int, n)
			for i := range x {
				x[i], y[i] = i, i
			}
			want.Shuffle(n, func(i, j int) { x[i], x[j] = x[j], x[i] })
			got.Shuffle(n, func(i, j int) { y[i], y[j] = y[j], y[i] })
			a, b = x, y
		}
		if !reflect.DeepEqual(a, b) {
			return fmt.Errorf("draw %d: math/rand %v, NewRand %v", k, a, b)
		}
	}
	return nil
}

func TestNewRandMatchesMathRand(t *testing.T) {
	seeds := exactSeeds()
	pick := rand.New(rand.NewSource(99))
	for i, seed := range seeds {
		want, got := rand.New(rand.NewSource(seed)), NewRand(seed)
		if err := mixedDraws(pick, want, got, 2000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Reseeding a used stream restarts it exactly as math/rand does.
		reseed := seeds[(i+1)%len(seeds)]
		want.Seed(reseed)
		got.Seed(reseed)
		if err := mixedDraws(pick, want, got, 2000); err != nil {
			t.Fatalf("seed %d reseeded to %d: %v", seed, reseed, err)
		}
	}
}

// TestNewRandFastPath fails when the init-time derivation of math/rand's
// seeding table did not reproduce math/rand, so NewRand fell back to
// rand.NewSource (correct streams, at the old seeding cost).
func TestNewRandFastPath(t *testing.T) {
	if !lazyOK {
		t.Fatal("math/rand's seeding table could not be derived; NewRand uses rand.NewSource")
	}
	src := reflect.ValueOf(NewRand(1)).Elem().FieldByName("src").Elem().Type()
	if src != reflect.TypeOf(&lazySource{}) {
		t.Fatalf("NewRand's source is %v, want *lazySource", src)
	}
}

func TestNodeSeedsKeepDerivedSeeds(t *testing.T) {
	for _, master := range []int64{1, 42, -7, math.MaxInt64} {
		for v, seed := range nodeSeeds(master, 512) {
			if want := DeriveSeed(master, uint64(v)); seed != want {
				t.Fatalf("master %d node %d: seed %d, want DeriveSeed %d", master, v, seed, want)
			}
		}
	}
}

// At master 9966146, nodes 11 and 13 get DeriveSeed values with one
// residue mod 2³¹−1, so math/rand would give them one stream: the same id
// and the same contender coin. The later node is re-derived.
func TestNodeStreamCollisionRederived(t *testing.T) {
	const master = 9966146
	a, b := DeriveSeed(master, 11), DeriveSeed(master, 13)
	if seedResidue(a) != seedResidue(b) {
		t.Fatalf("premise: residues %d and %d differ", seedResidue(a), seedResidue(b))
	}
	if rand.New(rand.NewSource(a)).Uint64() != rand.New(rand.NewSource(b)).Uint64() {
		t.Fatal("premise: math/rand streams differ")
	}
	g, err := graph.Clique(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{Graph: g, Seed: master}, floodProcs(16))
	if err != nil {
		t.Fatal(err)
	}
	if x, y := r.ctxs[11].Rand().Uint64(), r.ctxs[13].Rand().Uint64(); x == y {
		t.Fatalf("nodes 11 and 13 both draw %d first", x)
	}
	seeds := nodeSeeds(master, 16)
	for v, seed := range seeds {
		want := DeriveSeed(master, uint64(v))
		if v == 13 {
			want = DeriveSeed(want, 1)
		}
		if seed != want {
			t.Fatalf("node %d: seed %d, want %d", v, seed, want)
		}
	}
}

// At n = 65,536 most masters give some pair of nodes one residue; after
// the rule every node's residue is distinct, and only re-derived nodes
// changed seed.
func TestNodeSeedsResiduesDistinct(t *testing.T) {
	const n = 1 << 16
	rederived := 0
	for master := int64(0); master < 8; master++ {
		seeds := nodeSeeds(master, n)
		res := make([]uint64, n)
		for v, s := range seeds {
			res[v] = seedResidue(s)
			if s != DeriveSeed(master, uint64(v)) {
				rederived++
			}
		}
		slices.Sort(res)
		if len(slices.Compact(res)) != n {
			t.Fatalf("master %d: repeated residues", master)
		}
	}
	if rederived == 0 {
		t.Fatal("no node was re-derived; the test no longer covers the rule")
	}
}

var randSink uint64

// BenchmarkNewRand compares a NewRand stream with a math/rand one, seeded
// and then drawn 4 times (a node's id and a coin or two, or a fault
// plane's per-sender stream) or 300 times.
func BenchmarkNewRand(b *testing.B) {
	kinds := []struct {
		name string
		new  func(int64) *Rand
	}{
		{"lazy", NewRand},
		{"math-rand", func(seed int64) *Rand { return rand.New(rand.NewSource(seed)) }},
	}
	for _, draws := range []int{4, 300} {
		for _, k := range kinds {
			b.Run(fmt.Sprintf("%s/draws=%d", k.name, draws), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r := k.new(DeriveSeed(1, uint64(i)))
					for j := 0; j < draws; j++ {
						randSink += r.Uint64()
					}
				}
			})
		}
	}
}
