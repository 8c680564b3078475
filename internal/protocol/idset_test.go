package protocol

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestIndexNumbersInFirstSeenOrder(t *testing.T) {
	var x Index
	if k := x.Of(0); k != -1 {
		t.Fatalf("Of(0) = %d, want -1: id 0 names no node", k)
	}
	// 1,000 distinct ids rehash the table several times; numbers must not
	// move, and a repeat must return the number already given.
	for i := 0; i < 1000; i++ {
		id := ID(1_000_003 * (i + 1))
		if k := x.Of(id); k != i {
			t.Fatalf("fresh id %d got number %d, want %d", id, k, i)
		}
		if k := x.Of(id); k != i {
			t.Fatalf("repeat of id %d got number %d, want %d", id, k, i)
		}
	}
	if len(x.ids) != 1000 {
		t.Fatalf("%d ids numbered, want 1000", len(x.ids))
	}
	for i := 0; i < 1000; i++ {
		id := ID(1_000_003 * (i + 1))
		if x.ids[i] != id || x.Of(id) != i {
			t.Fatalf("number %d maps to id %d, want %d", i, x.ids[i], id)
		}
	}
	if x.Of(0) != -1 || len(x.ids) != 1000 {
		t.Fatal("id 0 must never be numbered")
	}
}

func TestIDSet(t *testing.T) {
	var x Index
	var s IDSet
	// 1,000 ids use words past the inline first one.
	for i := 1; i <= 1000; i++ {
		k := x.Of(ID(i))
		if s.Has(k) {
			t.Fatalf("id %d a member before its add", i)
		}
		if !s.Add(k) {
			t.Fatalf("fresh id %d rejected", i)
		}
		if s.Add(k) {
			t.Fatalf("duplicate id %d accepted", i)
		}
		if !s.Has(k) {
			t.Fatalf("id %d not a member after its add", i)
		}
	}
	if s.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", s.Len())
	}
	if s.Add(x.Of(0)) || s.Has(x.Of(0)) || s.Len() != 1000 {
		t.Fatal("id 0 must never be a member")
	}
	if s.Has(x.Of(1001)) {
		t.Fatal("absent id reported present")
	}
	got := s.AppendIDs(nil, &x)
	if len(got) != 1000 || got[0] != 1 || got[999] != 1000 || !slices.IsSorted(got) {
		t.Fatalf("AppendIDs = %d ids from %d to %d, want 1..1000 in numbering order", len(got), got[0], got[len(got)-1])
	}
	s.Reset()
	if s.Len() != 0 || s.Has(x.Of(1)) || s.Has(x.Of(1000)) || len(s.AppendIDs(nil, &x)) != 0 {
		t.Fatal("Reset must empty the set")
	}
	if !s.Add(x.Of(1000)) || s.Len() != 1 {
		t.Fatal("a reset set must accept its old members again")
	}
}

// Random operation sequences on several sets over one index agree with a
// map reference, over ids that include 0, 1, n⁴ and 2⁶⁴−1.
func TestIDSetMatchesMapReference(t *testing.T) {
	const n = 4096
	special := []ID{0, 1, ID(n) * n * n * n, math.MaxUint64}
	rng := rand.New(rand.NewSource(1))
	pool := append([]ID(nil), special...)
	for len(pool) < 300 {
		pool = append(pool, RandomID(rng.Uint64, n))
	}
	var x Index
	sets := make([]IDSet, 3)
	refs := make([]map[ID]bool, len(sets))
	for i := range refs {
		refs[i] = map[ID]bool{}
	}
	for step := 0; step < 20000; step++ {
		i := rng.Intn(len(sets))
		s, ref := &sets[i], refs[i]
		id := pool[rng.Intn(len(pool))]
		switch op := rng.Intn(100); {
		case op < 60:
			want := id != 0 && !ref[id]
			if got := s.Add(x.Of(id)); got != want {
				t.Fatalf("step %d: Add(%d) = %v, want %v", step, id, got, want)
			}
			if id != 0 {
				ref[id] = true
			}
		case op < 98:
			if got := s.Has(x.Of(id)); got != ref[id] {
				t.Fatalf("step %d: Has(%d) = %v, want %v", step, id, got, ref[id])
			}
		default:
			s.Reset()
			clear(ref)
		}
		if s.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(ref))
		}
	}
	for i := range sets {
		got := sets[i].AppendIDs(nil, &x)
		want := make([]ID, 0, len(refs[i]))
		for id := range refs[i] {
			want = append(want, id)
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("set %d holds %v, want %v", i, got, want)
		}
	}
}
