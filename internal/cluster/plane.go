package cluster

// The shard plane: internal/sim's RemotePlane implemented over the link
// layer. One instance lives for one election on one shard.
//
// Per barrier iteration (one global event round), each shard:
//
//  1. writes one or more data frames to every peer — the epoch, the
//     round, and every envelope queued for that peer this round — with
//     its barrier contribution (the minimum of its pre-receive next
//     pending event round and the earliest due round it sent) riding the
//     final chunk, and then
//  2. reads every peer's frames in whatever order they arrive, injecting
//     their envelopes into the local transport and folding their
//     piggybacked contributions into the global minimum.
//
// Every shard therefore computes the same global next-event round from
// the same k contributions, with no second network phase.
//
// Write-all-then-read-all is deadlock-free because every link's reader
// goroutine keeps draining the connection into an unbounded queue: a
// peer's pending writes can always make progress even while that peer is
// itself mid-write. The any-order receive makes it fast: one shared
// ready channel is attached to every link's queue, so the plane consumes
// whichever peer's frames land first instead of blocking on a fixed peer
// order. A peer that already finished this barrier may race ahead and
// queue next-epoch frames; the receive loop stops consuming a link at
// its final chunk, leaving those for the next iteration.

import (
	"fmt"
	"time"

	"wcle/internal/obs"
	"wcle/internal/sim"
	"wcle/internal/wire"
)

// WireStats counts what one election put on the wire. Per-shard stats
// count this shard's sends; the merged Result sums them, so the totals
// are the whole cluster's traffic (every frame is counted once, by its
// sender).
type WireStats struct {
	// Frames and Bytes count every data frame this shard sent. Bytes
	// includes the 5-byte frame headers and reflects what actually
	// crossed the wire (compressed sizes for compressed frames).
	Frames int64 `json:"frames"`
	Bytes  int64 `json:"bytes"`
	// Envelopes counts cross-shard protocol messages (the wire-level
	// realization of the paper's message complexity).
	Envelopes int64 `json:"envelopes"`
	// Barriers counts round-barrier iterations (identical on every
	// shard of a run).
	Barriers int64 `json:"barriers"`
	// CompressedFrames counts data frames sent compressed; RawBytes and
	// CompressedBytes are their payload sizes before and after flate.
	CompressedFrames int64 `json:"compressed_frames,omitempty"`
	RawBytes         int64 `json:"raw_bytes,omitempty"`
	CompressedBytes  int64 `json:"compressed_bytes,omitempty"`
}

func (s *WireStats) add(o WireStats) {
	s.Frames += o.Frames
	s.Bytes += o.Bytes
	s.Envelopes += o.Envelopes
	s.Barriers += o.Barriers
	s.CompressedFrames += o.CompressedFrames
	s.RawBytes += o.RawBytes
	s.CompressedBytes += o.CompressedBytes
}

// countFrame accounts one sent frame of the given payload length.
func (s *WireStats) countFrame(payloadLen int) {
	s.Frames++
	s.Bytes += int64(payloadLen) + 5 // length prefix + type byte
}

// shardLo returns the first node of a shard under the contiguous balanced
// partition: shard i of k owns [i*n/k, (i+1)*n/k).
func shardLo(n, shards, shard int) int { return shard * n / shards }

// ownerOf returns the shard hosting node v.
func ownerOf(n, shards, v int) int {
	// Start from the inverse map and correct for integer rounding.
	s := v * shards / n
	for s+1 < shards && shardLo(n, shards, s+1) <= v {
		s++
	}
	for s > 0 && shardLo(n, shards, s) > v {
		s--
	}
	return s
}

// dataChunkBytes bounds one data frame's envelope payload: a
// message-heavy round (floodmax on a large clique can queue tens of
// millions of bytes for one peer) crosses as a sequence of chunked
// frames, each far below the frame layer's 64MB cap. A variable so tests
// can force multi-chunk rounds on small elections.
var dataChunkBytes = 4 << 20

// compressMinBytes gates compression: below it, a frame ships raw even
// in a compressed session — tiny frames (empty flush markers,
// barrier-only rounds) cost more to deflate than to send. A variable so
// tests can force compression on small elections.
var compressMinBytes = 1 << 10

// chunk is one data frame's worth of encoded envelopes.
type chunk struct {
	buf []byte
	cnt int
}

// plane is the per-election RemotePlane of one shard.
type plane struct {
	shard, shards int
	owner         []int   // node index -> hosting shard id
	links         []*link // by shard id; links[shard] == nil
	compress      bool    // deflate data frames above compressMinBytes

	epoch   uint64
	out     [][]chunk     // per-peer encoded envelopes, pending this round
	buf     []byte        // reusable data-frame assembly buffer
	zbuf    []byte        // reusable compressed-frame assembly buffer
	sentMin int           // min due round sent this barrier (-1 = none)
	ready   chan struct{} // shared any-order receive notification
	done    []bool        // per-link: final chunk received this barrier

	stats   WireStats
	aborted bool
	tr      *obs.Tracer // nil ok: wire-flush/drain spans per barrier
}

// newPlane builds the shard plane for a graph whose node i is hosted by
// shard owner[i]. contiguousOwners builds the full-membership default;
// re-elections after membership loss pass the survivors' owner table.
func newPlane(links []*link, shard, shards int, owner []int, compress bool, tr *obs.Tracer) *plane {
	return &plane{
		shard:    shard,
		shards:   shards,
		owner:    owner,
		links:    links,
		compress: compress,
		out:      make([][]chunk, shards),
		sentMin:  -1,
		ready:    make(chan struct{}, 1),
		done:     make([]bool, shards),
		tr:       tr,
	}
}

// contiguousOwners is the default node->shard assignment: shard i of k
// owns the contiguous balanced range [i*n/k, (i+1)*n/k).
func contiguousOwners(n, shards int) []int {
	owner := make([]int, n)
	for v := range owner {
		owner[v] = ownerOf(n, shards, v)
	}
	return owner
}

var _ sim.RemotePlane = (*plane)(nil)

// Local reports whether this shard hosts node v.
func (p *plane) Local(v int) bool {
	return v >= 0 && v < len(p.owner) && p.owner[v] == p.shard
}

// Send queues one cross-shard envelope for the owner of `to`; it goes on
// the wire at the end-of-round Barrier.
func (p *plane) Send(round, due, to int, env sim.Envelope) error {
	owner := p.owner[to]
	if owner == p.shard {
		return fmt.Errorf("cluster: remote send to node %d, which shard %d hosts itself", to, p.shard)
	}
	chunks := p.out[owner]
	if len(chunks) == 0 || len(chunks[len(chunks)-1].buf) >= dataChunkBytes {
		chunks = append(chunks, chunk{})
	}
	c := &chunks[len(chunks)-1]
	buf, err := wire.AppendEnvelope(c.buf, wire.Envelope{
		Due: due, To: to, Port: env.Port, From: env.From, Msg: env.Payload,
	})
	if err != nil {
		return err
	}
	c.buf = buf
	c.cnt++
	p.out[owner] = chunks
	if p.sentMin < 0 || due < p.sentMin {
		p.sentMin = due
	}
	p.stats.Envelopes++
	return nil
}

// Barrier exchanges the round's cross-shard traffic with every peer and
// agrees on the global next event round. localNext is the shard's
// pre-receive earliest pending event round (-1 = quiescent); this
// shard's contribution folds in the earliest due round it sent, so
// in-flight envelopes are accounted for by their sender and the minimum
// over every shard's contribution is the global next event round.
func (p *plane) Barrier(round, localNext int, inject func(due, to int, env sim.Envelope) error) (int, error) {
	p.epoch++
	p.stats.Barriers++
	contribution := localNext
	if p.sentMin >= 0 && (contribution < 0 || p.sentMin < contribution) {
		contribution = p.sentMin
	}
	p.sentMin = -1
	framesBefore := p.stats.Frames
	flushSp := p.tr.Start("cluster", "wire-flush", int64(round))
	err := p.writeRound(round, contribution)
	flushSp.Arg("frames", p.stats.Frames-framesBefore)
	flushSp.End()
	if err != nil {
		return 0, p.abort(err)
	}
	drainSp := p.tr.Start("cluster", "drain", int64(round))
	peersNext, err := p.recvAll(round, inject)
	drainSp.End()
	if err != nil {
		return 0, p.abort(err)
	}
	global := contribution
	if peersNext >= 0 && (global < 0 || peersNext < global) {
		global = peersNext
	}
	return global, nil
}

// writeRound sends the round's queued envelopes to every peer as chunked
// data frames. The final chunk carries contribution; a compressed
// session deflates chunks above the size threshold.
func (p *plane) writeRound(round, contribution int) error {
	for peer, l := range p.links {
		if l == nil {
			continue
		}
		chunks := p.out[peer]
		if len(chunks) == 0 {
			chunks = append(chunks, chunk{}) // the empty flush marker
		}
		for ci := range chunks {
			hdr := wire.DataHeader{
				Epoch: p.epoch,
				Round: round,
				Flag:  wire.ChunkMore,
				Count: chunks[ci].cnt,
			}
			if ci == len(chunks)-1 {
				hdr.Flag = wire.ChunkFinalNext
				hdr.Next = contribution
			}
			p.buf = wire.AppendDataHeader(p.buf[:0], hdr)
			p.buf = append(p.buf, chunks[ci].buf...)
			typ, payload := byte(frameData), p.buf
			if p.compress && len(p.buf) >= compressMinBytes {
				if z, ok := wire.AppendCompressed(p.zbuf[:0], p.buf); ok {
					p.zbuf = z
					typ, payload = frameDataZ, z
					p.stats.CompressedFrames++
					p.stats.RawBytes += int64(len(p.buf))
					p.stats.CompressedBytes += int64(len(z))
				}
			}
			if err := l.write(typ, payload); err != nil {
				return err
			}
			p.stats.countFrame(len(payload))
		}
		if err := l.flush(); err != nil {
			return err
		}
		// Keep the first chunk's buffer for reuse; drop the rest.
		chunks[0].buf = chunks[0].buf[:0]
		chunks[0].cnt = 0
		p.out[peer] = chunks[:1]
	}
	return nil
}

// recvAll consumes every peer's data frames for the current epoch, in
// whatever order they arrive. It returns the minimum piggybacked peer
// contribution (-1 = all quiescent).
func (p *plane) recvAll(round int, inject func(due, to int, env sim.Envelope) error) (int, error) {
	peersNext := -1
	remaining := 0
	timeout := defaultFrameTimeout
	for s, l := range p.links {
		if l == nil {
			continue
		}
		p.done[s] = false
		remaining++
		timeout = l.timeout
		l.q.attach(p.ready)
	}
	defer func() {
		for _, l := range p.links {
			if l != nil {
				l.q.detach()
			}
		}
	}()
	if remaining == 0 {
		return -1, nil
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for remaining > 0 {
		progress := false
		for s, l := range p.links {
			if l == nil || p.done[s] {
				continue
			}
			// Drain this link's queued frames, stopping at its final
			// chunk: anything after it belongs to the next barrier
			// iteration (a piggybacked peer races ahead).
			for !p.done[s] {
				f, ok, err := l.q.tryNext()
				if err != nil {
					return 0, err
				}
				if !ok {
					break
				}
				progress = true
				final, next, err := p.handleData(l, f, round, inject)
				if err != nil {
					return 0, err
				}
				if final {
					p.done[s] = true
					remaining--
					if next >= 0 && (peersNext < 0 || next < peersNext) {
						peersNext = next
					}
				}
			}
		}
		if remaining == 0 {
			break
		}
		if progress {
			// Match the per-frame timeout discipline of the blocking
			// drain this replaces: silence is only fatal when nothing at
			// all arrives for a whole window.
			if !deadline.Stop() {
				<-deadline.C
			}
			deadline.Reset(timeout)
			continue
		}
		// Safe against dropped signals: a push happens-before its
		// signal, and a retained token forces one more full rescan.
		select {
		case <-p.ready:
		case <-deadline.C:
			return 0, fmt.Errorf("cluster: no data frame within %v (peer hung or dead)", timeout)
		}
	}
	return peersNext, nil
}

// handleData decodes one data frame, injects its envelopes, and reports
// whether it was the peer's final chunk and, if so, the peer's barrier
// contribution.
func (p *plane) handleData(l *link, f frame, round int, inject func(due, to int, env sim.Envelope) error) (bool, int, error) {
	b := f.payload
	switch f.typ {
	case frameData:
	case frameDataZ:
		raw, err := wire.Decompress(b, maxFrame)
		if err != nil {
			return false, 0, fmt.Errorf("cluster: compressed data frame from shard %d: %w", l.peer, err)
		}
		b = raw
	case frameAbort:
		var a abortMsg
		_ = decodeJSON(f, &a)
		return false, 0, fmt.Errorf("cluster: shard %d aborted: %s", a.Shard, a.Msg)
	case frameEpoch, frameEpochAck:
		// A supervisor is tearing this job down. The frame belongs to
		// the epoch-change handler, not the barrier: put it back and die.
		l.q.pushFront(f)
		return false, 0, fmt.Errorf("cluster: epoch change interrupted the job (frame from shard %d)", l.peer)
	default:
		return false, 0, fmt.Errorf("cluster: expected data from shard %d, got %s", l.peer, frameName(f.typ))
	}
	h, b, err := wire.DecodeDataHeader(b)
	if err != nil {
		return false, 0, fmt.Errorf("cluster: data frame from shard %d: %w", l.peer, err)
	}
	if h.Epoch != p.epoch {
		return false, 0, fmt.Errorf("cluster: shard %d at barrier epoch %d, expected %d", l.peer, h.Epoch, p.epoch)
	}
	if h.Round != round {
		return false, 0, fmt.Errorf("cluster: shard %d flushed round %d, expected %d", l.peer, h.Round, round)
	}
	for i := 0; i < h.Count; i++ {
		e, rest, err := wire.DecodeEnvelope(b)
		if err != nil {
			return false, 0, fmt.Errorf("cluster: envelope %d/%d from shard %d: %w", i+1, h.Count, l.peer, err)
		}
		b = rest
		if err := inject(e.Due, e.To, sim.Envelope{Port: e.Port, From: e.From, Payload: e.Msg}); err != nil {
			return false, 0, err
		}
	}
	if len(b) != 0 {
		return false, 0, fmt.Errorf("cluster: %d trailing bytes in data frame from shard %d", len(b), l.peer)
	}
	return h.Flag == wire.ChunkFinalNext, h.Next, nil
}

// abort marks the session broken, tells every peer, and returns err.
func (p *plane) abort(err error) error {
	if p.aborted {
		return err
	}
	p.aborted = true
	for _, l := range p.links {
		if l == nil {
			continue
		}
		_ = l.writeJSON(frameAbort, abortMsg{Shard: p.shard, Msg: err.Error()})
		_ = l.flush()
	}
	return err
}
