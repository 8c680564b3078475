package sim

import (
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
)

// Rand is the randomness handed to processes and fault planes. It aliases
// math/rand.Rand, and every stream from NewRand yields exactly the
// sequence of rand.New(rand.NewSource(seed)); only the cost of seeding
// differs. Every node gets an independent deterministic stream derived
// from the run seed and the node index (nodeSeeds).
type Rand = rand.Rand

// NewRand returns a deterministic Rand for the given seed: bit for bit the
// stream of rand.New(rand.NewSource(seed)), from a source that computes
// each seeded state word only on the draw that first reads it and
// allocates math/rand's 607-word state only on draw 274, the first draw
// that reads a word an earlier draw wrote. A stream drawn at most 273
// times costs about 96 bytes, not 5,424. If the init-time derivation of
// math/rand's seeding table failed (a toolchain whose source no longer
// matches), it falls back to rand.NewSource.
func NewRand(seed int64) *Rand {
	if !lazyOK {
		return rand.New(rand.NewSource(seed))
	}
	s := new(lazySource)
	s.Seed(seed)
	return rand.New(s)
}

// DeriveSeed mixes a master seed with a stream index through splitmix64 so
// that per-node streams are statistically independent even for adjacent
// indices. The same (master, idx) pair always yields the same seed, which
// is what makes whole runs replayable.
func DeriveSeed(master int64, idx uint64) int64 {
	z := uint64(master) ^ (idx+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// SeedForKey derives the deterministic seed of one unit of keyed work (a
// trial, a setup, a service job point): the key's FNV-1a hash indexes a
// DeriveSeed stream of the master seed. Every layer that derives seeds
// from stable string keys (the experiment harness's trials, electd's job
// points) goes through this one function so identical keys replay
// identically everywhere.
func SeedForKey(master int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return DeriveSeed(master, h.Sum64())
}

// nodeSeeds returns the stream seed of every node of an n-node run:
// DeriveSeed(master, v), except where two would give one stream. math/rand
// keeps only a seed's residue mod 2³¹−1, so a node whose residue repeats
// an earlier node's is re-derived as DeriveSeed(its seed, k) for
// k = 1, 2, … until the residue is new. The rule depends only on
// (master, n), so every shard of a cluster run computes the same streams.
func nodeSeeds(master int64, n int) []int64 {
	s := make([]int64, n)
	// Sort (residue, node) pairs to find a repeat without a map.
	for v := range s {
		s[v] = int64(seedResidue(DeriveSeed(master, uint64(v))))<<32 | int64(v)
	}
	slices.Sort(s)
	repeat := false
	for i := 1; i < n && !repeat; i++ {
		repeat = s[i]>>32 == s[i-1]>>32
	}
	for v := range s {
		s[v] = DeriveSeed(master, uint64(v))
	}
	if repeat {
		taken := make(map[uint64]bool, n)
		for v, seed := range s {
			for k := uint64(1); taken[seedResidue(seed)]; k++ {
				seed = DeriveSeed(s[v], k)
			}
			s[v] = seed
			taken[seedResidue(seed)] = true
		}
	}
	return s
}

// math/rand's source is the additive lagged-Fibonacci generator
// x_k = x_{k−607} + x_{k−273} mod 2⁶⁴ over a 607-word state. Seeding
// fills word i from steps 21+3i, 22+3i and 23+3i of the chain
// c ← 48271·c mod (2³¹−1) started at the seed's residue, xored with a
// constant table (rngCooked). Step j is residue·48271ʲ mod (2³¹−1), so
// with a table of those powers every word can be computed on its own.
const (
	rngLen  = 607
	rngTap  = 273
	rngFeed = rngLen - rngTap // the feed index before the first draw
	lcgMod  = 1<<31 - 1
	lcgMul  = 48271
	lcgSkip = 20 // chain steps before the first word's
)

var (
	// seedPow[3i+t] is 48271^(21+3i+t) mod (2³¹−1), the multiplier of
	// word i's chain step t.
	seedPow [3 * rngLen]uint64
	// seedCooked is math/rand's rngCooked, read back at init.
	seedCooked [rngLen]int64
	// lazyOK reports that the derivation reproduced math/rand; NewRand
	// uses lazySource only then.
	lazyOK = deriveSeedTables()
)

// seedResidue is the chain's start value for a seed, exactly as math/rand
// reduces it: seed mod 2³¹−1, moved into [0, 2³¹−1), with 0 replaced.
func seedResidue(seed int64) uint64 {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// mulMod returns a·b mod 2³¹−1 for a, b < 2³¹ (a Mersenne reduction).
func mulMod(a, b uint64) uint64 {
	x := a * b
	x = x&lcgMod + x>>31
	if x >= lcgMod {
		x -= lcgMod
	}
	return x
}

// seedTerm is word i's chain term for a residue; word i itself is
// seedTerm ^ rngCooked[i].
func seedTerm(residue uint64, i int) int64 {
	p := seedPow[3*i : 3*i+3]
	return int64(mulMod(residue, p[0])<<40 ^ mulMod(residue, p[1])<<20 ^ mulMod(residue, p[2]))
}

// deriveSeedTables fills seedPow, recovers rngCooked from a seeded
// math/rand source (its unexported vec, through reflect, less the seeding
// term), and reports whether lazySource then matches rand.NewSource past
// the end of its lazy phase on a probe seed.
func deriveSeedTables() bool {
	c := uint64(1)
	for j := 1; j <= lcgSkip+len(seedPow); j++ {
		c = c * lcgMul % lcgMod
		if j > lcgSkip {
			seedPow[j-lcgSkip-1] = c
		}
	}
	const known = 1
	src := reflect.ValueOf(rand.NewSource(known))
	if src.Kind() != reflect.Pointer || src.Elem().Kind() != reflect.Struct {
		return false
	}
	vec := src.Elem().FieldByName("vec")
	if vec.Kind() != reflect.Array || vec.Len() != rngLen || vec.Type().Elem().Kind() != reflect.Int64 {
		return false
	}
	for i := range seedCooked {
		seedCooked[i] = vec.Index(i).Int() ^ seedTerm(seedResidue(known), i)
	}
	const probe = -0x5DEECE66D
	want, ok := rand.NewSource(probe).(rand.Source64)
	if !ok {
		return false
	}
	var got lazySource
	got.Seed(probe)
	for k := 0; k < 2*rngLen; k++ {
		if got.Uint64() != want.Uint64() {
			return false
		}
	}
	return true
}

// lazySource is math/rand's source with lazy seeding and a deferred state
// array. Draw k after Seed adds the words at feed = 334−k and tap = 607−k.
// Through draw 273 both still hold their seeded values, so the draw
// computes them and stores nothing. Draw 274 reads tap 333, which draw 1
// wrote: it allocates vec (or reuses the one a reseeded stream holds),
// fills the taps 334–606 with their seeded words and replays draws 1–273
// into feeds 333–61. Through draw 334 a feed word is still seeded and is
// computed when read; from draw 335 the plain lagged-Fibonacci step takes
// over.
type lazySource struct {
	residue uint64
	drawn   int // draws since Seed, counted up to rngFeed
	tap     int
	feed    int
	vec     *[rngLen]int64 // nil until draw 274
}

// Seed implements rand.Source; it restarts the lazy phase and keeps an
// allocated state array for reuse.
func (s *lazySource) Seed(seed int64) {
	s.residue = seedResidue(seed)
	s.drawn = 0
}

// Int63 implements rand.Source.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Uint64 implements rand.Source64.
func (s *lazySource) Uint64() uint64 {
	if s.drawn < rngFeed {
		return s.seededDraw()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// seededDraw is one draw of the lazy phase.
func (s *lazySource) seededDraw() uint64 {
	s.drawn++
	if s.drawn <= rngTap {
		return uint64(s.word(rngFeed-s.drawn) + s.word(rngLen-s.drawn))
	}
	if s.drawn == rngTap+1 {
		s.materialize()
	}
	s.tap, s.feed = rngLen-s.drawn, rngFeed-s.drawn
	x := s.word(s.feed) + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// materialize gives the stream its state array as draws 1–273 would have
// left it: seeded taps 334–606, and feeds 333–61 holding those draws.
func (s *lazySource) materialize() {
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	for i := rngFeed; i < rngLen; i++ {
		s.vec[i] = s.word(i)
	}
	for k := 1; k <= rngTap; k++ {
		s.vec[rngFeed-k] = s.word(rngFeed-k) + s.vec[rngLen-k]
	}
}

// word is state word i as Seed would have left it.
func (s *lazySource) word(i int) int64 { return seedTerm(s.residue, i) ^ seedCooked[i] }
