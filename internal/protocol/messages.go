package protocol

import "fmt"

// Message kinds, used for per-kind accounting in sim.Metrics.ByKind.
const (
	KindToken = "token" // random-walk tokens (batched with a count)
	KindUp    = "up"    // convergecast toward a contender (X1, X3, winner relay)
	KindDown  = "down"  // downcast toward proxies (X2, FINAL, winner flood)
)

// UpStage distinguishes the convergecast flows on a walk tree.
type UpStage uint8

const (
	// UpX1 carries exchange round 1 data: the distinctness delta, proxy
	// count delta, and I1 id fragments (Algorithm 2, round 1).
	UpX1 UpStage = iota + 1
	// UpX3 carries exchange round 3 data: I3 id fragments (round 3).
	UpX3
	// UpWinner relays a winner notification from a proxy toward a
	// contender (Algorithm 2, line 6).
	UpWinner
)

// DownOp distinguishes the downcast flows on a walk tree.
type DownOp uint8

const (
	// DownX2 carries I2 id fragments toward the proxies (round 2).
	DownX2 DownOp = iota + 1
	// DownFinal latches the contender's current proxies as final (our
	// realization of the paper's "current or final guess" proxy
	// definition; see DESIGN.md).
	DownFinal
	// DownWinner floods a winner notification to the proxies (line 5).
	DownWinner
)

// TokenMsg is a batch of random-walk tokens from one origin with the same
// number of remaining steps (the paper's "one token and the count of
// tokens"). Remaining counts the steps still to take after this hop.
type TokenMsg struct {
	Origin    ID
	Phase     int
	Remaining int
	Count     int
	Win       ID
	bits      int
}

// UpMsg travels toward the contender along the walk tree's designated
// parent edges: additive deltas plus an id-set fragment.
type UpMsg struct {
	Origin ID
	Phase  int
	Stage  UpStage
	IDs    []ID
	DDelta int // distinct-proxy count delta (X1 only)
	PDelta int // proxy count delta (X1 only)
	Win    ID
	bits   int
	one    [1]ID // inline storage for IDs: a CONGEST fragment carries one id
}

// DownMsg travels from the contender toward its proxies along all child
// edges of the walk tree.
type DownMsg struct {
	Origin ID
	Phase  int
	Op     DownOp
	IDs    []ID
	Win    ID
	bits   int
	one    [1]ID // inline storage for IDs, as in UpMsg
}

func (m *TokenMsg) Bits() int    { return m.bits }
func (m *TokenMsg) Kind() string { return KindToken }
func (m *UpMsg) Bits() int       { return m.bits }
func (m *UpMsg) Kind() string    { return KindUp }
func (m *DownMsg) Bits() int     { return m.bits }
func (m *DownMsg) Kind() string  { return KindDown }

// Codec constructs protocol messages with correct bit accounting for a
// given network size and message-size mode.
type Codec struct {
	S      Sizing
	Mode   Mode
	MaxIDs int // payload ids per message under the mode's cap
	cap    int
}

// NewCodec builds a Codec for an n-node network in the given mode.
func NewCodec(n int, mode Mode) (*Codec, error) {
	s, err := NewSizing(n)
	if err != nil {
		return nil, err
	}
	maxIDs, err := s.MaxIDsPerMessage(mode)
	if err != nil {
		return nil, err
	}
	cap, err := s.Cap(mode)
	if err != nil {
		return nil, err
	}
	return &Codec{S: s, Mode: mode, MaxIDs: maxIDs, cap: cap}, nil
}

// Cap returns the per-message bit cap for this codec's mode.
func (c *Codec) Cap() int { return c.cap }

func (c *Codec) msgBits(numIDs int) int {
	return c.S.OverheadBits() + numIDs*c.S.IDBits()
}

// Token builds a walk-token batch message.
func (c *Codec) Token(origin ID, phase, remaining, count int) *TokenMsg {
	return &TokenMsg{
		Origin: origin, Phase: phase, Remaining: remaining, Count: count,
		bits: c.msgBits(0),
	}
}

// Up builds a convergecast message. ids must not exceed MaxIDs.
func (c *Codec) Up(origin ID, phase int, stage UpStage, ids []ID, dDelta, pDelta int) (*UpMsg, error) {
	if len(ids) > c.MaxIDs {
		return nil, fmt.Errorf("protocol: %d ids exceed per-message limit %d", len(ids), c.MaxIDs)
	}
	return &UpMsg{
		Origin: origin, Phase: phase, Stage: stage,
		IDs: append([]ID(nil), ids...), DDelta: dDelta, PDelta: pDelta,
		bits: c.msgBits(len(ids)),
	}, nil
}

// Down builds a downcast message. ids must not exceed MaxIDs.
func (c *Codec) Down(origin ID, phase int, op DownOp, ids []ID) (*DownMsg, error) {
	if len(ids) > c.MaxIDs {
		return nil, fmt.Errorf("protocol: %d ids exceed per-message limit %d", len(ids), c.MaxIDs)
	}
	return &DownMsg{
		Origin: origin, Phase: phase, Op: op,
		IDs:  append([]ID(nil), ids...),
		bits: c.msgBits(len(ids)),
	}, nil
}
