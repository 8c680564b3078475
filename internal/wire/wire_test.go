package wire_test

import (
	"reflect"
	"strings"
	"testing"

	_ "wcle/internal/algo" // registers every backend's message codecs
	"wcle/internal/protocol"
	"wcle/internal/sim"
	"wcle/internal/wire"
)

// TestAllBackendKindsRegistered pins the codec registry to the message
// kinds the shipped backends can put on an edge: a backend whose messages
// cannot cross a shard boundary is not cluster-capable.
func TestAllBackendKindsRegistered(t *testing.T) {
	want := []string{
		protocol.KindToken, protocol.KindUp, protocol.KindDown, // gilbertrs18
		"floodmax",                      // floodmax
		"kpprt-announce", "kpprt-reply", // kpprt
		"rumor", "pull", // pushpull
		"join",                                       // bfstree
		"agg-join", "agg-nack", "agg-up", "agg-down", // aggregate
	}
	kinds := strings.Join(wire.Kinds(), ",")
	for _, k := range want {
		if !strings.Contains(kinds, k) {
			t.Errorf("kind %q has no registered codec (registered: %s)", k, kinds)
		}
	}
}

// TestEnvelopeRoundTrip covers the envelope framing around a message.
func TestEnvelopeRoundTrip(t *testing.T) {
	c, err := protocol.NewCodec(64, protocol.ModeCongest)
	if err != nil {
		t.Fatal(err)
	}
	for _, from := range []int{-1, 0, 17} {
		e := wire.Envelope{Due: 12345, To: 63, Port: 5, From: from, Msg: c.Token(9, 2, 30, 4)}
		buf, err := wire.AppendEnvelope(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		got, rest, err := wire.DecodeEnvelope(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 {
			t.Fatalf("%d leftover bytes", len(rest))
		}
		if got.Due != e.Due || got.To != e.To || got.Port != e.Port || got.From != e.From {
			t.Fatalf("envelope fields: got %+v, want %+v", got, e)
		}
		if !reflect.DeepEqual(got.Msg, e.Msg) {
			t.Fatalf("payload: got %#v, want %#v", got.Msg, e.Msg)
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, _, err := wire.DecodeEnvelope(buf[:cut]); err == nil {
				t.Fatalf("truncation to %d/%d decoded cleanly", cut, len(buf))
			}
		}
	}
}

// TestUnregisteredKind: a message type without a codec fails encode with a
// message naming the kind.
func TestUnregisteredKind(t *testing.T) {
	if _, err := wire.AppendMessage(nil, strangeMsg{}); err == nil || !strings.Contains(err.Error(), "strange") {
		t.Fatalf("expected an error naming the kind, got %v", err)
	}
}

type strangeMsg struct{}

func (strangeMsg) Bits() int    { return 1 }
func (strangeMsg) Kind() string { return "strange" }

var _ sim.Message = strangeMsg{}

// TestControlRoundTrip: the supervision control payloads round-trip
// exactly, and every truncation of a valid encoding is rejected.
func TestControlRoundTrip(t *testing.T) {
	leases := []wire.Lease{
		{},
		{Epoch: 1, Leader: 27, LeaderShard: 1, HeartMillis: 50},
		{Epoch: 1<<63 + 5, Leader: 1 << 20, LeaderShard: 255, HeartMillis: ^uint32(0)},
	}
	for _, l := range leases {
		buf := wire.AppendLease(nil, l)
		got, err := wire.DecodeLease(buf)
		if err != nil || got != l {
			t.Fatalf("lease round-trip: %+v -> %+v (%v)", l, got, err)
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, err := wire.DecodeLease(buf[:cut]); err == nil {
				t.Fatalf("lease truncation to %d/%d decoded cleanly", cut, len(buf))
			}
		}
	}
	hearts := []wire.Heartbeat{{}, {Epoch: 9, Shard: 3, Seq: 1 << 40}}
	for _, h := range hearts {
		buf := wire.AppendHeartbeat(nil, h)
		got, err := wire.DecodeHeartbeat(buf)
		if err != nil || got != h {
			t.Fatalf("heartbeat round-trip: %+v -> %+v (%v)", h, got, err)
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, err := wire.DecodeHeartbeat(buf[:cut]); err == nil {
				t.Fatalf("heartbeat truncation to %d/%d decoded cleanly", cut, len(buf))
			}
		}
	}
	epochs := []wire.EpochChange{
		{Rejoin: -1, Live: []bool{}},
		{Epoch: 4, Live: []bool{true, false, true}, Rejoin: 1, RejoinAddr: "127.0.0.1:7001"},
	}
	for _, e := range epochs {
		buf := wire.AppendEpochChange(nil, e)
		got, err := wire.DecodeEpochChange(buf)
		if err != nil || !reflect.DeepEqual(got, e) {
			t.Fatalf("epoch change round-trip: %+v -> %+v (%v)", e, got, err)
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, err := wire.DecodeEpochChange(buf[:cut]); err == nil {
				t.Fatalf("epoch truncation to %d/%d decoded cleanly", cut, len(buf))
			}
		}
	}
	// A corrupted live flag and an oversized shard id are rejected.
	if _, err := wire.DecodeEpochChange([]byte{1, 1, 7, 0, 0}); err == nil {
		t.Fatal("bad live flag decoded cleanly")
	}
	if _, err := wire.DecodeLease(wire.AppendLease(nil, wire.Lease{LeaderShard: 1 << 30})); err == nil {
		t.Fatal("oversized leader shard decoded cleanly")
	}
}

// TestDataHeaderFlags: a data frame is a ChunkMore continuation or the
// ChunkFinalNext barrier chunk; the reserved flag 1 and unknown flags
// are corruption.
func TestDataHeaderFlags(t *testing.T) {
	for _, h := range []wire.DataHeader{
		{Epoch: 2, Round: 9, Flag: wire.ChunkMore, Next: -1, Count: 0},
		{Epoch: 3, Round: 11, Flag: wire.ChunkFinalNext, Next: 14, Count: 0},
	} {
		got, rest, err := wire.DecodeDataHeader(wire.AppendDataHeader(nil, h))
		if err != nil || got != h || len(rest) != 0 {
			t.Fatalf("data header round-trip: %+v -> %+v (%v)", h, got, err)
		}
	}
	for _, flag := range []byte{1, 3, 255} {
		b := wire.AppendDataHeader(nil, wire.DataHeader{Epoch: 2, Round: 9, Flag: flag})
		if _, _, err := wire.DecodeDataHeader(b); err == nil {
			t.Fatalf("chunk flag %d decoded cleanly", flag)
		}
	}
}
