package protocol

import (
	"fmt"
	"math/bits"
)

// ID is a protocol-level node identity, drawn uniformly from [1, n^4]
// (Algorithm 1 line 1). Zero means "no id".
type ID uint64

// Sizing computes message sizes in bits for a network of a given size.
// L is ceil(log2 n); ids take 4L bits (they live in [1, n^4]), counts and
// walk lengths take 2L bits (they are bounded by polynomial functions of n
// in all our protocols), and flags take O(1).
type Sizing struct {
	N int
	L int
}

// NewSizing returns the Sizing for an n-node network.
func NewSizing(n int) (Sizing, error) {
	if n < 2 {
		return Sizing{}, fmt.Errorf("protocol: sizing needs n >= 2, got %d", n)
	}
	return Sizing{N: n, L: bits.Len(uint(n - 1))}, nil
}

// IDBits is the width of one identity field.
func (s Sizing) IDBits() int { return 4 * s.L }

// CountBits is the width of one counter field (token counts, walk lengths,
// aggregation deltas).
func (s Sizing) CountBits() int { return 2 * s.L }

// FlagBits is the width reserved for type tags and booleans in a message.
const FlagBits = 8

// CongestCap is the per-message bit cap in the standard CONGEST model:
// a constant number of id-sized words, i.e. Theta(log n) bits. It is sized
// to fit a message carrying an origin id, a winner id, two payload ids and
// two counters.
func (s Sizing) CongestCap() int { return 4*s.IDBits() + 2*s.CountBits() + FlagBits }

// LargeCap is the per-message cap for the paper's Lemma 12 relaxed mode,
// O(log^3 n) bits, which lets a whole id set travel in one message.
func (s Sizing) LargeCap() int { return s.CongestCap() * s.L * s.L }

// Mode selects the message-size regime of Lemma 12.
type Mode int

const (
	// ModeCongest is the standard CONGEST model: O(log n)-bit messages.
	ModeCongest Mode = iota + 1
	// ModeLarge allows O(log^3 n)-bit messages (Lemma 12's second bound).
	ModeLarge
)

func (m Mode) String() string {
	switch m {
	case ModeCongest:
		return "congest"
	case ModeLarge:
		return "large"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Cap returns the per-message bit cap for the mode.
func (s Sizing) Cap(m Mode) (int, error) {
	switch m {
	case ModeCongest:
		return s.CongestCap(), nil
	case ModeLarge:
		return s.LargeCap(), nil
	default:
		return 0, fmt.Errorf("protocol: unknown mode %v", m)
	}
}

// MaxIDsPerMessage returns how many payload ids fit in one exchange message
// under the mode's cap, after reserving space for the envelope fields
// (origin, winner, two counters, flags). Always at least 1.
func (s Sizing) MaxIDsPerMessage(m Mode) (int, error) {
	cap, err := s.Cap(m)
	if err != nil {
		return 0, err
	}
	k := (cap - s.OverheadBits()) / s.IDBits()
	if k < 1 {
		k = 1
	}
	return k, nil
}

// OverheadBits is the fixed envelope size of every protocol message: an
// origin id, a winner id, three counter fields (phase plus two
// kind-specific counters), and the flag byte. Message constructors use the
// same formula, so a message with MaxIDsPerMessage ids exactly fits the cap.
func (s Sizing) OverheadBits() int { return 2*s.IDBits() + 3*s.CountBits() + FlagBits }

// RandomID draws an id uniformly from [1, n^4] using the given random
// source (a function returning uniform uint64, typically rng.Uint64). From
// n = 65,536 on, n^4 exceeds 2^64 − 1, and the id is drawn uniformly from
// [1, 2^64 − 1], the widest range an ID holds.
func RandomID(uint64fn func() uint64, n int) ID {
	if n >= 1<<16 {
		for {
			if v := uint64fn(); v != 0 {
				return ID(v)
			}
		}
	}
	max := uint64(n) * uint64(n) * uint64(n) * uint64(n)
	// Rejection sampling for exact uniformity on [0, max).
	limit := ^uint64(0) - (^uint64(0) % max)
	for {
		v := uint64fn()
		if v < limit {
			return ID(v%max) + 1
		}
	}
}
