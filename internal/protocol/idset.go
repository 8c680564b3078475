package protocol

// This file holds the protocol's id-set representations. Two concerns are
// separated deliberately:
//
//   - FastSet is a tiny open-addressing hash set used for pure membership
//     filtering (the outbox's convergecast filters, a contender's I2
//     accumulator). It exposes no iteration, so its probe order can never
//     leak into protocol behavior.
//   - TrackedSet adds the members in insertion order for sets that are
//     also iterated; consumers sort at the point of use, which is what the
//     replayability contract requires anyway.

// fastSetMinTable is the initial table size (power of two).
const fastSetMinTable = 16

// FastSet is an allocation-lean set of non-zero IDs (protocol ids are drawn
// from [1, n^4], so 0 is free as the empty slot marker). Small sets live in
// an inline array (most per-edge filter sets hold a handful of ids and
// never touch the heap); larger ones migrate to a linear-probed
// power-of-two table. The zero value is ready to use.
type FastSet struct {
	n     int
	small [4]ID
	tab   []ID
}

// hashID mixes an id for table placement (splitmix64's multiplier; the
// probe order is internal and never observable).
func hashID(id ID) uint64 {
	z := uint64(id) * 0x9E3779B97F4A7C15
	return z ^ (z >> 29)
}

// Len returns the number of members.
func (s *FastSet) Len() int { return s.n }

// Reset empties the set, keeping the table.
func (s *FastSet) Reset() {
	clear(s.tab)
	s.n = 0
}

// Has reports membership.
func (s *FastSet) Has(id ID) bool {
	if s.tab == nil {
		for i := 0; i < s.n; i++ {
			if s.small[i] == id {
				return true
			}
		}
		return false
	}
	if s.n == 0 {
		return false
	}
	mask := uint64(len(s.tab) - 1)
	for i := hashID(id) & mask; ; i = (i + 1) & mask {
		switch s.tab[i] {
		case id:
			return true
		case 0:
			return false
		}
	}
}

// Add inserts id; reports whether it was absent. id must be non-zero.
func (s *FastSet) Add(id ID) bool {
	if s.tab == nil {
		for i := 0; i < s.n; i++ {
			if s.small[i] == id {
				return false
			}
		}
		if s.n < len(s.small) {
			s.small[s.n] = id
			s.n++
			return true
		}
		// Migrate the inline members to a heap table.
		s.tab = make([]ID, fastSetMinTable)
		n := s.n
		s.n = 0
		for i := 0; i < n; i++ {
			s.insert(s.small[i])
		}
	} else if 4*s.n >= 3*len(s.tab) {
		s.grow()
	}
	return s.insert(id)
}

// insert adds id to the heap table (which must exist and have room).
func (s *FastSet) insert(id ID) bool {
	mask := uint64(len(s.tab) - 1)
	for i := hashID(id) & mask; ; i = (i + 1) & mask {
		switch s.tab[i] {
		case id:
			return false
		case 0:
			s.tab[i] = id
			s.n++
			return true
		}
	}
}

func (s *FastSet) grow() {
	old := s.tab
	s.tab = make([]ID, 2*len(old))
	mask := uint64(len(s.tab) - 1)
	for _, id := range old {
		if id == 0 {
			continue
		}
		i := hashID(id) & mask
		for s.tab[i] != 0 {
			i = (i + 1) & mask
		}
		s.tab[i] = id
	}
}

// TrackedSet is a FastSet plus the members in insertion order, for sets
// that are also iterated (sorted by the consumer at the point of use).
type TrackedSet struct {
	set  FastSet
	List []ID
}

// Add inserts id; reports whether it was absent.
func (s *TrackedSet) Add(id ID) bool {
	if !s.set.Add(id) {
		return false
	}
	s.List = append(s.List, id)
	return true
}

// Has reports membership.
func (s *TrackedSet) Has(id ID) bool { return s.set.Has(id) }

// Len returns the number of members.
func (s *TrackedSet) Len() int { return s.set.Len() }

// Reset empties the set, keeping its storage.
func (s *TrackedSet) Reset() {
	s.set.Reset()
	s.List = s.List[:0]
}
