package wire_test

import (
	"encoding/binary"
	"reflect"
	"testing"

	// Linked for its wire registrations: the built-in protocol codecs and
	// the committee claim frame (id 14), so the fuzzers cover the
	// adversarial frame path too.
	_ "wcle/internal/engine"
	"wcle/internal/protocol"
	"wcle/internal/wire"
)

// FuzzWireDecode: the decoders are total functions. Whatever bytes arrive
// on a cluster connection, decoding returns a message or an error — never
// a panic, never an allocation the input did not pay for.
func FuzzWireDecode(f *testing.F) {
	c, err := protocol.NewCodec(128, protocol.ModeCongest)
	if err != nil {
		f.Fatal(err)
	}
	up, err := c.Up(42, 3, protocol.UpX1, []protocol.ID{7}, -2, 5)
	if err != nil {
		f.Fatal(err)
	}
	down, err := c.Down(41, 2, protocol.DownFinal, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range []interface {
		Bits() int
		Kind() string
	}{c.Token(9, 1, 30, 4), up, down} {
		env, err := wire.AppendEnvelope(nil, wire.Envelope{Due: 7, To: 3, Port: 1, From: -1, Msg: m})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(env)
		msg, err := wire.AppendMessage(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(msg)
	}
	f.Add(wire.AppendLease(nil, wire.Lease{Epoch: 3, Leader: 27, LeaderShard: 1, HeartMillis: 50}))
	f.Add(wire.AppendHeartbeat(nil, wire.Heartbeat{Epoch: 3, Shard: 2, Seq: 99}))
	f.Add(wire.AppendEpochChange(nil, wire.EpochChange{
		Epoch: 4, Live: []bool{true, false, true}, Rejoin: 1, RejoinAddr: "127.0.0.1:7001",
	}))
	// Data-frame headers in both chunk layouts, including the final chunk
	// that carries the shard's next-event round, plus the reserved flag 1.
	f.Add(wire.AppendDataHeader(nil, wire.DataHeader{Epoch: 2, Round: 9, Flag: wire.ChunkMore, Count: 4}))
	f.Add(wire.AppendDataHeader(nil, wire.DataHeader{Epoch: 2, Round: 9, Flag: 1, Count: 0}))
	f.Add(wire.AppendDataHeader(nil, wire.DataHeader{Epoch: 3, Round: 11, Flag: wire.ChunkFinalNext, Next: 14, Count: 2}))
	f.Add(wire.AppendDataHeader(nil, wire.DataHeader{Epoch: 3, Round: 11, Flag: wire.ChunkFinalNext, Next: -1, Count: 0}))
	if z, ok := wire.AppendCompressed(nil, make([]byte, 4096)); ok {
		f.Add(z)
	}
	// A committee claim frame (the Byzantine defense's physical message,
	// wire id 14) wrapping the token message — the adversarial frame path.
	tok, err := wire.AppendMessage(nil, c.Token(9, 1, 30, 4))
	if err != nil {
		f.Fatal(err)
	}
	claim := []byte{14, 5, 0, 3} // id, seq=5, idx=0, total=3
	claim = binary.AppendUvarint(claim, uint64(len(tok)))
	f.Add(append(claim, tok...))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every entry point a peer's bytes reach: envelope framing (the
		// data-frame path), bare messages, and the supervision control
		// payloads. Valid control payloads must round-trip byte-for-byte
		// (they are part of the deterministic wire contract).
		if e, rest, err := wire.DecodeEnvelope(data); err == nil {
			if e.Msg == nil {
				t.Fatal("decoded envelope with nil message")
			}
			_ = e.Msg.Bits()
			_ = e.Msg.Kind()
			_ = rest
		}
		if m, err := wire.DecodeMessage(data); err == nil {
			_ = m.Bits()
			_ = m.Kind()
		}
		// Accepted control payloads must round-trip semantically: re-encoding
		// the decoded value and decoding again yields the same value. (Byte
		// identity is too strong — Uvarint tolerates non-canonical inputs.)
		if l, err := wire.DecodeLease(data); err == nil {
			if l2, err := wire.DecodeLease(wire.AppendLease(nil, l)); err != nil || l2 != l {
				t.Fatalf("lease round-trip: %+v -> %+v (%v)", l, l2, err)
			}
		}
		if h, err := wire.DecodeHeartbeat(data); err == nil {
			if h2, err := wire.DecodeHeartbeat(wire.AppendHeartbeat(nil, h)); err != nil || h2 != h {
				t.Fatalf("heartbeat round-trip: %+v -> %+v (%v)", h, h2, err)
			}
		}
		if e, err := wire.DecodeEpochChange(data); err == nil {
			e2, err := wire.DecodeEpochChange(wire.AppendEpochChange(nil, e))
			if err != nil || !reflect.DeepEqual(e2, e) {
				t.Fatalf("epoch change round-trip: %+v -> %+v (%v)", e, e2, err)
			}
		}
		// Data-frame headers: any accepted header re-encodes to a header
		// that decodes to the same value with the same remaining bytes.
		if h, rest, err := wire.DecodeDataHeader(data); err == nil {
			if h.Flag != wire.ChunkFinalNext && h.Next != -1 {
				t.Fatalf("non-piggybacked header decoded Next=%d, want the -1 sentinel: %+v", h.Next, h)
			}
			enc := wire.AppendDataHeader(nil, h)
			h2, rest2, err := wire.DecodeDataHeader(append(enc, rest...))
			if err != nil || h2 != h || len(rest2) != len(rest) {
				t.Fatalf("data header round-trip: %+v -> %+v (%v)", h, h2, err)
			}
		}
		// The compressed-frame decoder is total and bounded: it either
		// errors or yields exactly the raw length the header promised,
		// never more than the cap.
		if raw, err := wire.Decompress(data, 1<<16); err == nil {
			if len(raw) > 1<<16 {
				t.Fatalf("Decompress exceeded its cap: %d bytes", len(raw))
			}
			z, ok := wire.AppendCompressed(nil, raw)
			if ok {
				raw2, err := wire.Decompress(z, 1<<16)
				if err != nil || !reflect.DeepEqual(raw2, raw) {
					t.Fatalf("compress round-trip failed on %d bytes (%v)", len(raw), err)
				}
			}
		}
	})
}

// FuzzCompressRoundTrip drives AppendCompressed/Decompress from the raw
// side: every payload either declines compression or round-trips exactly.
func FuzzCompressRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("the same envelope header repeated, the same envelope header repeated"))
	f.Add(make([]byte, 2048))
	f.Fuzz(func(t *testing.T, raw []byte) {
		z, ok := wire.AppendCompressed(nil, raw)
		if !ok {
			if len(z) != 0 {
				t.Fatalf("declined compression but grew dst by %d bytes", len(z))
			}
			return
		}
		if len(z) >= len(raw) {
			t.Fatalf("kept a non-smaller encoding: %d -> %d bytes", len(raw), len(z))
		}
		got, err := wire.Decompress(z, len(raw))
		if err != nil {
			t.Fatalf("decompressing own output: %v", err)
		}
		if !reflect.DeepEqual(got, raw) {
			t.Fatalf("round trip changed %d bytes", len(raw))
		}
	})
}
