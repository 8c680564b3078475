package wire

// Data-frame codec: the header of the cluster's per-round envelope frames
// and the optional flate compression applied to large ones. These live in
// wire (not internal/cluster) so the decoders sit under the same totality
// contract — and the same fuzzer — as the message codecs: whatever bytes a
// peer sends, decoding returns a value or an error, never a panic or an
// allocation the input did not pay for.
//
// One data frame carries one chunk of one shard's per-(peer, round) flush:
//
//	[uvarint epoch][uvarint round][flag byte]
//	[flag == ChunkFinalNext: varint next][uvarint count][count envelopes]
//
// The flag byte is the chunking protocol: ChunkMore frames continue the
// round, and the ChunkFinalNext frame ends it. The final chunk is the
// barrier: the sender's next-event contribution rides it, so round
// advancement needs no separate control round-trip.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Data-frame chunk flags. Part of the wire format: never reuse.
const (
	// ChunkMore: more chunks of this (peer, round) flush follow.
	ChunkMore = 0
	// Flag 1 is reserved: it marked a final chunk without a next-event
	// round, for the retired ready/advance barrier.

	// ChunkFinalNext: the flush's last chunk, carrying the sender's
	// piggybacked next-event round.
	ChunkFinalNext = 2
)

// MaxDataBytes bounds the raw size a compressed data frame may claim, so
// a corrupt or hostile length cannot demand unbounded memory. It equals
// the cluster frame layer's own frame cap.
const MaxDataBytes = 64 << 20

// DataHeader is the decoded header of one data frame.
type DataHeader struct {
	// Epoch is the barrier iteration the frame belongs to.
	Epoch uint64
	// Round is the global event round being flushed.
	Round int
	// Flag is the chunking flag (ChunkMore or ChunkFinalNext).
	Flag byte
	// Next is the sender's barrier contribution — the minimum of its
	// pre-receive next pending event round and the earliest due round it
	// sent this round (-1 = nothing pending, nothing sent). Meaningful
	// only when Flag == ChunkFinalNext.
	Next int
	// Count is the number of envelopes in this chunk.
	Count int
}

// AppendDataHeader encodes a data-frame header onto buf. The envelopes
// follow it verbatim.
func AppendDataHeader(buf []byte, h DataHeader) []byte {
	buf = binary.AppendUvarint(buf, h.Epoch)
	buf = binary.AppendUvarint(buf, uint64(h.Round))
	buf = append(buf, h.Flag)
	if h.Flag == ChunkFinalNext {
		buf = binary.AppendVarint(buf, int64(h.Next))
	}
	return binary.AppendUvarint(buf, uint64(h.Count))
}

// DecodeDataHeader parses a data-frame header and returns it plus the
// remaining input (the envelope bytes). Count is validated against the
// remaining length before returning, so a corrupt count cannot drive an
// unpaid allocation downstream.
func DecodeDataHeader(b []byte) (DataHeader, []byte, error) {
	var h DataHeader
	const maxInt = int(^uint(0) >> 1)
	epoch, b, err := ReadUvarint(b)
	if err != nil {
		return h, nil, err
	}
	round, b, err := ReadUvarint(b)
	if err != nil {
		return h, nil, err
	}
	if round > uint64(maxInt) {
		return h, nil, fmt.Errorf("%w: data-frame round %d overflows int", ErrCorrupt, round)
	}
	if len(b) == 0 {
		return h, nil, fmt.Errorf("%w: data frame truncated at chunk flag", ErrCorrupt)
	}
	h.Flag = b[0]
	b = b[1:]
	if h.Flag != ChunkMore && h.Flag != ChunkFinalNext {
		return h, nil, fmt.Errorf("%w: unknown chunk flag %d", ErrCorrupt, h.Flag)
	}
	h.Next = -1
	if h.Flag == ChunkFinalNext {
		next, rest, err := ReadVarint(b)
		if err != nil {
			return h, nil, err
		}
		if next < -1 || next > int64(maxInt) {
			return h, nil, fmt.Errorf("%w: piggybacked next round %d out of range", ErrCorrupt, next)
		}
		h.Next = int(next)
		b = rest
	}
	cnt, b, err := ReadCount(b)
	if err != nil {
		return h, nil, err
	}
	h.Epoch, h.Round, h.Count = epoch, int(round), cnt
	return h, b, nil
}

// Flate state is pooled: one election writes (and reads) thousands of
// frames, and a fresh flate.Writer is a ~650KB allocation.
var (
	flateWriters = sync.Pool{New: func() interface{} {
		w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
		return w
	}}
	flateReaders = sync.Pool{New: func() interface{} {
		return flate.NewReader(bytes.NewReader(nil))
	}}
)

// sliceWriter adapts an append target to io.Writer for the flate encoder.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// AppendCompressed appends the compressed form of raw — a uvarint raw
// length followed by a flate stream — onto dst. When the compressed form
// is not smaller than raw, it reports false and returns dst unchanged:
// the caller sends the raw frame instead, so compression can only ever
// shrink the wire.
func AppendCompressed(dst, raw []byte) ([]byte, bool) {
	base := len(dst)
	sw := &sliceWriter{b: binary.AppendUvarint(dst, uint64(len(raw)))}
	zw := flateWriters.Get().(*flate.Writer)
	zw.Reset(sw)
	_, werr := zw.Write(raw)
	cerr := zw.Close()
	flateWriters.Put(zw)
	if werr != nil || cerr != nil || len(sw.b)-base >= len(raw) {
		return sw.b[:base], false
	}
	return sw.b, true
}

// Decompress inverts AppendCompressed. The claimed raw length is bounded
// by maxRaw before any allocation, and the flate stream must decode to
// exactly that many bytes — a shorter or longer stream is corruption.
func Decompress(b []byte, maxRaw int) ([]byte, error) {
	rawLen, b, err := ReadUvarint(b)
	if err != nil {
		return nil, err
	}
	if rawLen > uint64(maxRaw) {
		return nil, fmt.Errorf("%w: compressed frame claims %d raw bytes (cap %d)", ErrCorrupt, rawLen, maxRaw)
	}
	zr := flateReaders.Get().(io.ReadCloser)
	defer flateReaders.Put(zr)
	if err := zr.(flate.Resetter).Reset(bytes.NewReader(b), nil); err != nil {
		return nil, fmt.Errorf("%w: flate reset: %v", ErrCorrupt, err)
	}
	out := make([]byte, int(rawLen))
	if _, err := io.ReadFull(zr, out); err != nil {
		return nil, fmt.Errorf("%w: flate stream: %v", ErrCorrupt, err)
	}
	var one [1]byte
	if n, err := zr.Read(one[:]); n != 0 || err != io.EOF {
		return nil, fmt.Errorf("%w: flate stream longer than its claimed %d bytes", ErrCorrupt, rawLen)
	}
	return out, nil
}
