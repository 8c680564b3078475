package cluster

// Frame layer: everything crossing a cluster connection is a
// [u32 big-endian length][type byte][payload] frame. Control frames carry
// JSON (rare, debuggable); the per-round data frames, which also carry
// the round barrier, are binary (hot path).

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// proto is the cluster wire-protocol version, checked at every hello: a
// joiner speaking another version is refused, so every process of a
// cluster runs the same protocol. In version 3 a shard's result frame
// carries its hosted output rows and its accounting.
const proto = 3

// Frame types. Part of the wire format: never reuse. 0x11 and 0x12 are
// reserved: they were the ready/advance frames of the retired coordinator
// barrier.
const (
	frameHello    = 0x01 // JSON helloMsg: joiner → listener, first frame of every peer conn
	framePeers    = 0x02 // JSON peersMsg: coordinator → worker, the shard directory
	frameUp       = 0x03 // JSON upMsg: worker → coordinator, pairwise setup complete
	frameStart    = 0x04 // JSON startMsg: coordinator → worker, run this job
	frameResult   = 0x05 // JSON partialResult: worker → coordinator
	frameShutdown = 0x06 // JSON shutdownMsg: coordinator → worker, session over
	frameSubmit   = 0x07 // JSON JobSpec: client → coordinator
	frameOutcome  = 0x08 // JSON outcomeMsg: coordinator → client
	frameAbort    = 0x09 // JSON abortMsg: any → any, the session is broken
	frameData     = 0x10 // binary: epoch, round, count, envelopes
	frameLease    = 0x13 // binary wire.Lease: coordinator → worker, leader elected, start heartbeating
	frameHeart    = 0x14 // binary wire.Heartbeat: worker → coordinator, periodic under a lease
	frameEpoch    = 0x15 // binary wire.EpochChange: coordinator → worker (membership change) and worker ↔ worker (link drain marker)
	frameEpochAck = 0x16 // binary: uvarint epoch; worker → coordinator, quiesced and drained
	frameDataZ    = 0x17 // binary: [uvarint rawLen][flate stream] of a frameData payload
)

// maxFrame bounds a frame's declared size so a corrupt or hostile length
// prefix cannot demand unbounded memory.
const maxFrame = 64 << 20

// frame is one decoded frame.
type frame struct {
	typ     byte
	payload []byte
}

// helloMsg is the first frame of every shard-to-shard connection.
type helloMsg struct {
	Proto int `json:"proto"`
	// Shard is the dialing shard's id.
	Shard int `json:"shard"`
	// Addr is the dialer's own listen address (join hellos only; workers
	// need it in the peer directory so higher shards can dial them).
	Addr string `json:"addr,omitempty"`
}

// peersMsg is the coordinator's shard directory: Addrs[i] is shard i's
// listen address. Live[i], when present, reports whether shard i is
// currently part of the session (nil means everyone is; a rejoining
// worker only wires up to live peers). Compress is the coordinator's
// session setting: when set, data frames above the size threshold cross
// as flate streams (frameDataZ). Every member decodes those whatever the
// setting, so only senders need it.
type peersMsg struct {
	Addrs    []string `json:"addrs"`
	Live     []bool   `json:"live,omitempty"`
	Compress bool     `json:"compress,omitempty"`
}

// upMsg signals a worker finished its pairwise link setup.
type upMsg struct {
	Shard int `json:"shard"`
}

// startMsg dispatches one job to a shard.
type startMsg struct {
	JobID int64   `json:"job_id"`
	Spec  JobSpec `json:"spec"`
}

// shutdownMsg ends the session; workers exit cleanly.
type shutdownMsg struct{}

// abortMsg declares the session broken (a shard failed mid-barrier).
type abortMsg struct {
	Shard int    `json:"shard"`
	Msg   string `json:"msg"`
}

// outcomeMsg answers a client submission.
type outcomeMsg struct {
	Result *Result `json:"result,omitempty"`
	Err    string  `json:"err,omitempty"`
}

// writeFrame writes one frame to w.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	if len(payload)+1 > maxFrame {
		return fmt.Errorf("cluster: %d-byte frame exceeds the %d-byte cap", len(payload)+1, maxFrame)
	}
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame from r.
func readFrame(r io.Reader) (frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size == 0 || size > maxFrame {
		return frame{}, fmt.Errorf("cluster: frame length %d out of (0, %d]", size, maxFrame)
	}
	body := make([]byte, size)
	if _, err := io.ReadFull(r, body); err != nil {
		return frame{}, err
	}
	return frame{typ: body[0], payload: body[1:]}, nil
}

// writeJSONFrame marshals v as a JSON control frame.
func writeJSONFrame(w io.Writer, typ byte, v interface{}) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return writeFrame(w, typ, payload)
}

// decodeJSON unmarshals a control frame's payload.
func decodeJSON(f frame, v interface{}) error {
	if err := json.Unmarshal(f.payload, v); err != nil {
		return fmt.Errorf("cluster: corrupt frame type 0x%02x: %w", f.typ, err)
	}
	return nil
}

// frameName renders a frame type for error messages.
func frameName(typ byte) string {
	switch typ {
	case frameHello:
		return "hello"
	case framePeers:
		return "peers"
	case frameUp:
		return "up"
	case frameStart:
		return "start"
	case frameResult:
		return "result"
	case frameShutdown:
		return "shutdown"
	case frameSubmit:
		return "submit"
	case frameOutcome:
		return "outcome"
	case frameAbort:
		return "abort"
	case frameData:
		return "data"
	case frameLease:
		return "lease"
	case frameHeart:
		return "heart"
	case frameEpoch:
		return "epoch"
	case frameEpochAck:
		return "epoch-ack"
	case frameDataZ:
		return "data-z"
	default:
		return fmt.Sprintf("0x%02x", typ)
	}
}
