package protocol

import (
	"wcle/internal/sim"
)

type tokenKey struct {
	origin    ID
	phase     int
	remaining int
}

// Handle addresses one walk tree's merge slots in an Outbox. A node takes
// one per tree from NewHandle when the tree is created (handles are dense:
// 0, 1, 2, ...) and passes it with every PushUp and PushDown for that tree,
// so the outbox finds the slots by indexing instead of hashing the origin.
type Handle int32

// upSlot is the merge state of one tree's convergecast flow for one stage:
// the still-queued fragment new ids and deltas merge into, and the per-edge
// filter of ids already queued or sent. Both belong to (phase, port); a
// push for another phase or port starts them afresh. A tree's convergecast
// port is its parent port, fixed for a phase, and its phase only grows, so
// no older flow is ever pushed to again.
type upSlot struct {
	cur   *UpMsg
	phase int32
	port  int32
	sent  FastSet
}

// downSlots are one tree's open downcast fragments on one port, indexed by
// DownOp-1. A fragment stays open while it is queued and belongs to the
// tree's current phase (its own Phase field). Downcasts need no per-edge
// filter: the tree sends each id to each child port once per phase.
type downSlots [3]*DownMsg

// resendRec is one retransmission obligation: a private snapshot of an
// already-transmitted message plus the number of repeats still owed.
type resendRec struct {
	msg  sim.Message
	left int
}

// ring is a FIFO on a power-of-two circular buffer. A standing backlog
// reuses the slots it frees, and the buffer doubles only when full, so its
// size stays within twice the peak backlog (and at least 4).
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		buf := make([]T, max(4, 2*len(r.buf)))
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// front returns the oldest element; the ring must not be empty.
func (r *ring[T]) front() *T { return &r.buf[r.head] }

// pop removes and returns the oldest element; the ring must not be empty.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// portQ is a FIFO of queued messages for one port, with the merge state of
// the token batches and downcast fragments still queued on it. Merge slots
// only ever point at messages still in a queue; once a message is sent it
// can no longer be merged into.
type portQ struct {
	q      ring[sim.Message]
	tokens map[tokenKey]*TokenMsg
	downs  []downSlots // indexed by Handle, grown on first use
	// resend is the retransmission FIFO (only used when Outbox.Resend > 0).
	resend ring[resendRec]
}

// Outbox implements the paper's per-edge congestion discipline: messages
// queue per port, at most one is transmitted per round, and queued messages
// merge where the protocol allows it — token batches with equal (origin,
// remaining) add their counts (Lemma 12's "only one token and the count of
// tokens"), convergecast fragments for the same origin and stage coalesce
// ids and add their deltas until the per-message id limit is reached.
type Outbox struct {
	codec   *Codec
	ports   []portQ
	ups     [][3]upSlot // indexed by Handle, then UpStage-1
	pending int
	resends int

	// Pool, when non-nil, supplies recycled message objects for the send
	// path (see MsgPool).
	Pool *MsgPool

	// Resend, when positive, retransmits each idempotent message up to
	// Resend extra times on its port, after all fresh traffic — redundancy
	// against lossy transports (a Drop fault plane). Only messages whose
	// duplication is harmless are repeated: downcasts (id-set floods and
	// the FINAL/winner latches) and delta-free convergecast fragments.
	// Token batches and delta-carrying fragments are additive, not
	// idempotent, and are never duplicated. Each retransmission is a real
	// send under the CONGEST discipline and is counted as such.
	Resend int
}

// NewOutbox returns an outbox for a node with the given degree.
func NewOutbox(codec *Codec, degree int) *Outbox {
	return &Outbox{codec: codec, ports: make([]portQ, degree)}
}

// NewHandle returns the next merge-slot handle.
func (ob *Outbox) NewHandle() Handle {
	ob.ups = append(ob.ups, [3]upSlot{})
	return Handle(len(ob.ups) - 1)
}

// Pending returns the number of queued, unsent messages across all ports,
// including pending retransmissions.
func (ob *Outbox) Pending() int { return ob.pending + ob.resends }

func (pq *portQ) push(ob *Outbox, m sim.Message) {
	pq.q.push(m)
	ob.pending++
}

// PushToken enqueues count walk tokens for origin with the given remaining
// steps, merging with an already-queued batch when possible.
func (ob *Outbox) PushToken(port int, origin ID, phase, remaining, count int) {
	if count <= 0 {
		return
	}
	pq := &ob.ports[port]
	k := tokenKey{origin: origin, phase: phase, remaining: remaining}
	if pq.tokens == nil {
		pq.tokens = make(map[tokenKey]*TokenMsg)
	}
	if m, ok := pq.tokens[k]; ok {
		m.Count += count
		return
	}
	m := ob.Pool.token()
	m.Origin, m.Phase, m.Remaining, m.Count = origin, phase, remaining, count
	m.bits = ob.codec.msgBits(0)
	pq.tokens[k] = m
	pq.push(ob, m)
}

// PushUp enqueues convergecast data for the tree with handle h: an optional
// id fragment plus additive deltas. Ids are chunked across messages per the
// codec's id limit; an id already queued or sent on this port for the same
// (origin, phase, stage) is filtered out (the paper's per-edge filtering).
// Deltas merge into the newest queued fragment regardless of its id load,
// or open a new one. A tree's convergecasts go to its parent port, one port
// per phase, and its phase only grows, so h's slots keep the filter and the
// open fragment of the latest (phase, port) only.
func (ob *Outbox) PushUp(port int, h Handle, origin ID, phase int, stage UpStage, ids []ID, dDelta, pDelta int) {
	slot := &ob.ups[h][stage-1]
	if slot.phase != int32(phase) || slot.port != int32(port) {
		slot.cur = nil
		slot.phase, slot.port = int32(phase), int32(port)
		slot.sent.Reset()
	}
	fresh := func() *UpMsg {
		m := ob.Pool.up()
		m.Origin, m.Phase, m.Stage, m.slot = origin, phase, stage, h
		m.bits = ob.codec.msgBits(0)
		slot.cur = m
		ob.ports[port].push(ob, m)
		return m
	}
	if dDelta != 0 || pDelta != 0 || len(ids) == 0 {
		m := slot.cur
		if m == nil {
			m = fresh()
		}
		m.DDelta += dDelta
		m.PDelta += pDelta
	}
	for _, id := range ids {
		if !slot.sent.Add(id) {
			continue
		}
		m := slot.cur
		if m == nil || len(m.IDs) >= ob.codec.MaxIDs {
			m = fresh()
		}
		m.IDs = append(m.IDs, id)
		m.bits = ob.codec.msgBits(len(m.IDs))
	}
}

// PushDown enqueues downcast data (I2 fragments, FINAL, winner floods) for
// the tree with handle h, chunking ids and merging into the open fragment
// for the same phase and op. It does not filter ids: callers push each id
// to each child port once per (origin, phase, op).
func (ob *Outbox) PushDown(port int, h Handle, origin ID, phase int, op DownOp, ids []ID) {
	pq := &ob.ports[port]
	for int(h) >= len(pq.downs) {
		pq.downs = append(pq.downs, downSlots{})
	}
	slot := &pq.downs[h][op-1]
	if *slot != nil && (*slot).Phase != phase {
		*slot = nil
	}
	fresh := func() *DownMsg {
		m := ob.Pool.down()
		m.Origin, m.Phase, m.Op, m.slot = origin, phase, op, h
		m.bits = ob.codec.msgBits(0)
		*slot = m
		pq.push(ob, m)
		return m
	}
	if len(ids) == 0 {
		if *slot == nil {
			fresh()
		}
		return
	}
	for _, id := range ids {
		m := *slot
		if m == nil || len(m.IDs) >= ob.codec.MaxIDs {
			m = fresh()
		}
		m.IDs = append(m.IDs, id)
		m.bits = ob.codec.msgBits(len(m.IDs))
	}
}

// resendable reports whether duplicating a message is harmless: id floods
// and latches are set operations at every receiver, while token counts and
// X1 deltas are additive.
func resendable(m sim.Message) bool {
	switch t := m.(type) {
	case *DownMsg:
		return true
	case *UpMsg:
		return t.DDelta == 0 && t.PDelta == 0
	}
	return false
}

// snapshot clones a message into an outbox-owned copy for retransmission
// (the transmitted original is consumed — and possibly recycled — by the
// receiver). The copy's ids go into its own storage: the struct copy alone
// would leave it sharing the original's inline id array.
func (ob *Outbox) snapshot(m sim.Message) sim.Message {
	switch t := m.(type) {
	case *UpMsg:
		c := ob.Pool.up()
		ids := c.IDs
		*c = *t
		c.IDs = append(ids, t.IDs...)
		return c
	case *DownMsg:
		c := ob.Pool.down()
		ids := c.IDs
		*c = *t
		c.IDs = append(ids, t.IDs...)
		return c
	}
	return nil
}

// Flush transmits at most one queued message per port (the CONGEST limit),
// stamping the current winner id on each outgoing message (the paper's
// "appends it to all future messages"). Fresh traffic is sent first; when a
// port has none and Resend is configured, one owed retransmission goes out
// instead. It returns the first send error.
func (ob *Outbox) Flush(ctx *sim.Context, win ID) error {
	for port := range ob.ports {
		pq := &ob.ports[port]
		if pq.q.n == 0 {
			if err := ob.flushResend(ctx, port, pq, win); err != nil {
				return err
			}
			continue
		}
		msg := pq.q.pop()
		ob.pending--
		switch m := msg.(type) {
		case *TokenMsg:
			k := tokenKey{origin: m.Origin, phase: m.Phase, remaining: m.Remaining}
			if pq.tokens[k] == m {
				delete(pq.tokens, k)
			}
			m.Win = win
		case *UpMsg:
			if slot := &ob.ups[m.slot][m.Stage-1]; slot.cur == m {
				slot.cur = nil
			}
			m.Win = win
		case *DownMsg:
			if slot := &pq.downs[m.slot][m.Op-1]; *slot == m {
				*slot = nil
			}
			m.Win = win
		}
		if ob.Resend > 0 && resendable(msg) {
			pq.resend.push(resendRec{msg: ob.snapshot(msg), left: ob.Resend})
			ob.resends += ob.Resend
		}
		if err := ctx.Send(port, msg); err != nil {
			return err
		}
	}
	return nil
}

// flushResend transmits one owed retransmission on an otherwise idle port.
func (ob *Outbox) flushResend(ctx *sim.Context, port int, pq *portQ, win ID) error {
	if pq.resend.n == 0 {
		return nil
	}
	var out sim.Message
	if rec := pq.resend.front(); rec.left > 1 {
		out = ob.snapshot(rec.msg)
		rec.left--
	} else {
		out = pq.resend.pop().msg
	}
	ob.resends--
	switch m := out.(type) {
	case *UpMsg:
		m.Win = win
	case *DownMsg:
		m.Win = win
	}
	return ctx.Send(port, out)
}
