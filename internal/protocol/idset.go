package protocol

import "math/bits"

// This file holds the protocol's id sets. Every id set the paper's election
// keeps holds contender ids — a contender's I2, each walk tree's relay
// record and proxy store, the outbox's per-edge convergecast filter — and
// an honest run has only X ≈ c1·ln n contenders. So each node numbers the
// ids it sees once, in an Index, and every set is an IDSet: a bitset over
// those numbers. An arriving id costs one lookup in the node's small Index
// table; a relay or filter decision is then a bit test on a word the set
// holds inline.
//
// Id 0 means "no id": no honest node draws it, but forged messages carry
// it. The Index gives 0 no number, so no IDSet ever holds it.
//
// Neither type exposes an order other than the numbering itself, which is
// the node's own first-seen order; consumers that push a set's members
// sort them first, which the replayability contract requires anyway.

// indexMinTable is the initial size of an Index's hash table (a power of
// two; the table stays at most half full).
const indexMinTable = 32

// Index numbers the ids one node has seen: 0, 1, 2, … in the order the
// node first asks for them. The zero value is empty and ready to use.
type Index struct {
	ids  []ID    // the ids, by number
	keys []ID    // open-addressed hash table of the ids; 0 marks an empty slot
	nums []int32 // the number of keys[i]
}

// Of returns id's number, numbering id first if it is new. Id 0 gets no
// number: Of returns -1, which no IDSet admits.
func (x *Index) Of(id ID) int {
	if id == 0 {
		return -1
	}
	if x.keys == nil {
		x.rehash(indexMinTable)
	}
	mask := len(x.keys) - 1
	i := slotOf(id, mask)
	for ; x.keys[i] != 0; i = (i + 1) & mask {
		if x.keys[i] == id {
			return int(x.nums[i])
		}
	}
	k := len(x.ids)
	x.ids = append(x.ids, id)
	if 2*len(x.ids) > len(x.keys) {
		x.rehash(2 * len(x.keys))
	} else {
		x.keys[i], x.nums[i] = id, int32(k)
	}
	return k
}

// rehash rebuilds the hash table at the given size from the numbered ids.
func (x *Index) rehash(size int) {
	x.keys = make([]ID, size)
	x.nums = make([]int32, size)
	mask := size - 1
	for k, id := range x.ids {
		i := slotOf(id, mask)
		for x.keys[i] != 0 {
			i = (i + 1) & mask
		}
		x.keys[i], x.nums[i] = id, int32(k)
	}
}

// slotOf places an id in a table of mask+1 slots (splitmix64's multiplier;
// the placement is internal and never observable, and it spreads forged
// runs of consecutive ids as well as random ones).
func slotOf(id ID, mask int) int {
	z := uint64(id) * 0x9E3779B97F4A7C15
	return int(z^(z>>32)) & mask
}

// IDSet is a set of ids held as a bitset over one node's Index: bit k is
// set when the id numbered k is a member. The first word is inline, so a
// set over a node's first 64 numbered ids (every honest run at the
// repository's scales) never touches the heap; further words grow to the
// highest number the set holds. The zero value is empty and ready to use.
type IDSet struct {
	w0   uint64
	more []uint64 // words 1, 2, …
}

// Add inserts the id numbered k and reports whether it was absent. A
// negative k, which stands for id 0, is never a member.
func (s *IDSet) Add(k int) bool {
	if k < 64 {
		if k < 0 {
			return false
		}
		bit := uint64(1) << k
		if s.w0&bit != 0 {
			return false
		}
		s.w0 |= bit
		return true
	}
	j := k/64 - 1
	if j >= len(s.more) {
		s.more = append(s.more, make([]uint64, j+1-len(s.more))...)
	}
	bit := uint64(1) << (k % 64)
	if s.more[j]&bit != 0 {
		return false
	}
	s.more[j] |= bit
	return true
}

// Has reports whether the id numbered k is a member.
func (s *IDSet) Has(k int) bool {
	if k < 64 {
		return k >= 0 && s.w0&(1<<k) != 0
	}
	j := k/64 - 1
	return j < len(s.more) && s.more[j]&(1<<(k%64)) != 0
}

// Len returns the number of members.
func (s *IDSet) Len() int {
	n := bits.OnesCount64(s.w0)
	for _, w := range s.more {
		n += bits.OnesCount64(w)
	}
	return n
}

// Reset empties the set, keeping its words.
func (s *IDSet) Reset() {
	s.w0 = 0
	clear(s.more)
}

// AppendIDs appends the members' ids to dst, in x's numbering order.
func (s *IDSet) AppendIDs(dst []ID, x *Index) []ID {
	dst = appendWord(dst, s.w0, x.ids)
	for j, w := range s.more {
		dst = appendWord(dst, w, x.ids[64*(j+1):])
	}
	return dst
}

// appendWord appends ids[b] for every set bit b of w.
func appendWord(dst []ID, w uint64, ids []ID) []ID {
	for ; w != 0; w &= w - 1 {
		dst = append(dst, ids[bits.TrailingZeros64(w)])
	}
	return dst
}
