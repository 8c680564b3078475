package protocol

import (
	"wcle/internal/sim"
)

// Handle addresses one walk tree in an Outbox. A node takes one per tree
// from NewHandle when the tree is created (handles are dense: 0, 1, 2, ...)
// and passes it with every push for that tree, so the outbox finds the
// tree's merge slots by indexing instead of hashing the origin, and a queued
// record names its origin by the handle alone.
type Handle int32

type tokenKey struct {
	h         Handle
	phase     int
	remaining int
}

// qpos names a queued record by its position in its port's queue (the
// number of records pushed on the port before it) plus one, so the zero
// value names none. Positions only grow, so a qpos stays valid while the
// ring wraps and grows, and the record it names is still queued exactly
// while the qpos exceeds the port's count of sent records.
type qpos uint64

// upSlot is the merge state of one tree's convergecast flow for one stage:
// the still-queued fragment new ids and deltas merge into, and the per-edge
// filter of ids already queued or sent, a bitset over the outbox's Index.
// Both belong to (phase, port); a push for another phase or port starts
// them afresh. A tree's convergecast port is its parent port, fixed for a
// phase, and its phase only grows, so no older flow is ever pushed to
// again.
type upSlot struct {
	open  qpos
	phase int
	port  int32
	sent  IDSet
}

// Record kinds, one per message type.
const (
	recToken uint8 = iota
	recUp
	recDown
)

// Where a fragment record keeps its ids.
const (
	noIDs  uint8 = iota
	oneID        // inline, in rec.id
	bufIDs       // two or more, in Outbox.bufs[rec.id]
)

// rec is one queued message as plain values; Flush builds the message
// object from it when it reaches the head of its port. It holds no pointer,
// so a standing backlog costs the garbage collector nothing to scan. Each
// field holds the full range of the message field it stands for: decoded
// (and forged) messages carry arbitrary values, and relays queue them as
// they are.
type rec struct {
	phase int // Phase
	a, b  int // token: Remaining, Count; up: DDelta, PDelta
	// id is the fragment's one id, or the index of its id buffer when it
	// has more than one.
	id   ID
	h    Handle // the tree, whose handle names the message's Origin
	kind uint8  // recToken, recUp or recDown
	sub  uint8  // the UpStage or DownOp
	ids  uint8  // noIDs, oneID or bufIDs
}

// resendRec is one retransmission obligation: the transmitted record,
// rebuilt on every resend, and the number of repeats still owed.
type resendRec struct {
	rec
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

// at returns the element i places behind the oldest; i must be below n.
func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// pop removes and returns the oldest element; the ring must not be empty.
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// portQ is the FIFO of records queued for one port, with the merge state
// of the token batches and downcast fragments still queued on it. Merge
// state names records by queue position and only ever merges into a record
// still queued; once its message is sent it can no longer be merged into.
type portQ struct {
	q      ring[rec]
	sent   uint64 // records sent from q so far
	tokens map[tokenKey]qpos
	// downs are the open downcast fragments, indexed by Handle and then
	// DownOp-1, grown on first use. A fragment stays open while it is
	// queued and belongs to the tree's current phase (its own phase).
	// Downcasts need no per-edge filter: the tree sends each id to each
	// child port once per phase.
	downs [][3]qpos
	// resend is the retransmission FIFO (only used when Outbox.Resend > 0).
	resend ring[resendRec]
}

// open returns the record qp names while it is still queued, else nil.
func (pq *portQ) open(qp qpos) *rec {
	if uint64(qp) <= pq.sent {
		return nil
	}
	return pq.q.at(int(uint64(qp) - 1 - pq.sent))
}

// Outbox implements the paper's per-edge congestion discipline: messages
// queue per port, at most one is transmitted per round, and queued messages
// merge where the protocol allows it — token batches with equal (origin,
// remaining) add their counts (Lemma 12's "only one token and the count of
// tokens"), convergecast fragments for the same origin and stage coalesce
// ids and add their deltas until the per-message id limit is reached.
//
// A queued message is a pointer-free value record; its message object is
// drawn from Pool only when Flush sends it, so an object lives for one
// round (the flush, then the receiver's Step, which returns it to a pool)
// instead of for its whole wait behind the port's backlog.
type Outbox struct {
	codec   *Codec
	ports   []portQ
	origins []ID        // indexed by Handle
	ups     [][3]upSlot // indexed by Handle, then UpStage-1
	pending int
	resends int

	// bufs hold the ids of fragments with more than one (only modes above
	// the CONGEST cap have them) while they are queued or owed a resend;
	// free lists the unused ones.
	bufs [][]ID
	free []int

	// Index numbers the ids the node has seen. The convergecast filters
	// are bitsets over it, and so are the node's own id sets, which share
	// it.
	Index Index

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

// NewHandle returns the next handle, for the walk tree of origin.
func (ob *Outbox) NewHandle(origin ID) Handle {
	ob.origins = append(ob.origins, origin)
	ob.ups = append(ob.ups, [3]upSlot{})
	return Handle(len(ob.origins) - 1)
}

// Pending returns the number of queued, unsent messages across all ports,
// including pending retransmissions.
func (ob *Outbox) Pending() int { return ob.pending + ob.resends }

// queue appends r to the port's FIFO and returns its position and the
// queued copy, which stays valid until the next push on the port.
func (ob *Outbox) queue(pq *portQ, r rec) (qpos, *rec) {
	pq.q.push(r)
	ob.pending++
	return qpos(pq.sent + uint64(pq.q.n)), pq.q.at(pq.q.n - 1)
}

// PushToken enqueues count walk tokens of the tree with handle h with the
// given remaining steps, merging with an already-queued batch when
// possible.
func (ob *Outbox) PushToken(port int, h Handle, phase, remaining, count int) {
	if count <= 0 {
		return
	}
	pq := &ob.ports[port]
	k := tokenKey{h: h, phase: phase, remaining: remaining}
	if pq.tokens == nil {
		pq.tokens = make(map[tokenKey]qpos)
	}
	if qp, ok := pq.tokens[k]; ok {
		pq.open(qp).b += count
		return
	}
	pq.tokens[k], _ = ob.queue(pq, rec{phase: phase, a: remaining, b: count, h: h, kind: recToken})
}

// PushUp enqueues convergecast data for the tree with handle h: an optional
// id fragment plus additive deltas. Ids are chunked across messages per the
// codec's id limit; an id already queued or sent on this port for the same
// (origin, phase, stage) is filtered out (the paper's per-edge filtering),
// and so is id 0, which names no node.
// Deltas merge into the newest queued fragment regardless of its id load,
// or open a new one. A tree's convergecasts go to its parent port, one port
// per phase, and its phase only grows, so h's slots keep the filter and the
// open fragment of the latest (phase, port) only.
func (ob *Outbox) PushUp(port int, h Handle, phase int, stage UpStage, ids []ID, dDelta, pDelta int) {
	slot := &ob.ups[h][stage-1]
	if slot.phase != phase || slot.port != int32(port) {
		slot.open = 0
		slot.phase, slot.port = phase, int32(port)
		slot.sent.Reset()
	}
	pq := &ob.ports[port]
	cur := pq.open(slot.open)
	fresh := rec{phase: phase, h: h, kind: recUp, sub: uint8(stage)}
	if dDelta != 0 || pDelta != 0 || len(ids) == 0 {
		if cur == nil {
			slot.open, cur = ob.queue(pq, fresh)
		}
		cur.a += dDelta
		cur.b += pDelta
	}
	for _, id := range ids {
		if !slot.sent.Add(ob.Index.Of(id)) {
			continue
		}
		if cur == nil || ob.numIDs(cur) >= ob.codec.MaxIDs {
			slot.open, cur = ob.queue(pq, fresh)
		}
		ob.addID(cur, id)
	}
}

// PushDown enqueues downcast data (I2 fragments, FINAL, winner floods) for
// the tree with handle h, chunking ids and merging into the open fragment
// for the same phase and op. It does not filter ids: callers push each id
// to each child port once per (origin, phase, op).
func (ob *Outbox) PushDown(port int, h Handle, phase int, op DownOp, ids []ID) {
	pq := &ob.ports[port]
	for int(h) >= len(pq.downs) {
		pq.downs = append(pq.downs, [3]qpos{})
	}
	slot := &pq.downs[h][op-1]
	cur := pq.open(*slot)
	if cur != nil && cur.phase != phase {
		cur = nil
	}
	fresh := rec{phase: phase, h: h, kind: recDown, sub: uint8(op)}
	if len(ids) == 0 {
		if cur == nil {
			*slot, _ = ob.queue(pq, fresh)
		}
		return
	}
	for _, id := range ids {
		if cur == nil || ob.numIDs(cur) >= ob.codec.MaxIDs {
			*slot, cur = ob.queue(pq, fresh)
		}
		ob.addID(cur, id)
	}
}

// numIDs returns the number of ids in a fragment record.
func (ob *Outbox) numIDs(r *rec) int {
	switch r.ids {
	case oneID:
		return 1
	case bufIDs:
		return len(ob.bufs[r.id])
	}
	return 0
}

// addID appends id to a fragment record. The first id stays inline; the
// second moves both into an id buffer.
func (ob *Outbox) addID(r *rec, id ID) {
	switch r.ids {
	case noIDs:
		r.id, r.ids = id, oneID
	case oneID:
		var b int
		if n := len(ob.free); n > 0 {
			b, ob.free = ob.free[n-1], ob.free[:n-1]
		} else {
			b = len(ob.bufs)
			ob.bufs = append(ob.bufs, nil)
		}
		ob.bufs[b] = append(ob.bufs[b][:0], r.id, id)
		r.id, r.ids = ID(b), bufIDs
	default:
		ob.bufs[r.id] = append(ob.bufs[r.id], id)
	}
}

// release frees a sent record's id buffer, if it has one.
func (ob *Outbox) release(r *rec) {
	if r.ids == bufIDs {
		ob.free = append(ob.free, int(r.id))
	}
}

// appendIDs appends a fragment record's ids to dst.
func (ob *Outbox) appendIDs(dst []ID, r *rec) []ID {
	switch r.ids {
	case oneID:
		return append(dst, r.id)
	case bufIDs:
		return append(dst, ob.bufs[r.id]...)
	}
	return dst
}

// resendable reports whether duplicating a record's message is harmless:
// id floods and latches are set operations at every receiver, while token
// counts and X1 deltas are additive.
func (r *rec) resendable() bool {
	return r.kind == recDown || r.kind == recUp && r.a == 0 && r.b == 0
}

// build draws a message object from the pool and fills it from r, stamping
// the winner id.
func (ob *Outbox) build(r *rec, win ID) sim.Message {
	origin := ob.origins[r.h]
	switch r.kind {
	case recToken:
		m := ob.Pool.token()
		m.Origin, m.Phase, m.Remaining, m.Count, m.Win = origin, r.phase, r.a, r.b, win
		m.bits = ob.codec.msgBits(0)
		return m
	case recUp:
		m := ob.Pool.up()
		m.Origin, m.Phase, m.Stage, m.DDelta, m.PDelta, m.Win = origin, r.phase, UpStage(r.sub), r.a, r.b, win
		m.IDs = ob.appendIDs(m.IDs, r)
		m.bits = ob.codec.msgBits(len(m.IDs))
		return m
	default:
		m := ob.Pool.down()
		m.Origin, m.Phase, m.Op, m.Win = origin, r.phase, DownOp(r.sub), win
		m.IDs = ob.appendIDs(m.IDs, r)
		m.bits = ob.codec.msgBits(len(m.IDs))
		return m
	}
}

// Flush transmits at most one queued message per port (the CONGEST limit),
// stamping the current winner id on each outgoing message (the paper's
// "appends it to all future messages"). Fresh traffic is sent first; when a
// port has none and Resend is configured, one owed retransmission goes out
// instead. It returns the first send error.
func (ob *Outbox) Flush(ctx *sim.Context, win ID) error {
	for port := range ob.ports {
		pq := &ob.ports[port]
		var msg sim.Message
		switch {
		case pq.q.n > 0:
			r := pq.q.pop()
			pq.sent++
			ob.pending--
			msg = ob.build(&r, win)
			if r.kind == recToken {
				// A batch is in tokens from its push until now: later
				// pushes of its key merge into it while it is queued.
				delete(pq.tokens, tokenKey{h: r.h, phase: r.phase, remaining: r.a})
			}
			if ob.Resend > 0 && r.resendable() {
				pq.resend.push(resendRec{rec: r, left: ob.Resend})
				ob.resends += ob.Resend
			} else {
				ob.release(&r)
			}
		case pq.resend.n > 0:
			rr := pq.resend.at(0)
			msg = ob.build(&rr.rec, win)
			ob.resends--
			if rr.left--; rr.left == 0 {
				ob.release(&rr.rec)
				pq.resend.pop()
			}
		default:
			continue
		}
		if err := ctx.Send(port, msg); err != nil {
			return err
		}
	}
	return nil
}
