// Package protocol provides the message-level plumbing shared by the
// election algorithm and the baselines: CONGEST bit-size accounting, the
// walk/exchange/control message types, a per-port outbox that merges and
// chunks messages exactly as the paper's Lemma 12 prescribes (one token
// plus a count instead of many tokens; id sets split into O(log n)-bit
// pieces; duplicate filtering), and the lazy-random-walk token splitting
// logic.
//
// The package also holds the performance substrate of the send hot path.
// Under the CONGEST cap each id travels alone, so an election's cost is its
// message count times the cost of one message, and the outbox keeps that
// second factor small: merge slots are addressed by a per-tree Handle (an
// index, no hashing), each queued fragment records its own slot, the port
// and resend FIFOs are rings that reuse their storage under a standing
// backlog, and a one-id fragment carries its id inline (one allocation, or
// none from the pool). Per-edge id filtering lives where repeats arise:
// the outbox filters convergecasts, which reach a node from several
// children; downcasts need no filter, because the caller's walk tree sends
// each id to each child once per phase. Beside the outbox sit
// allocation-lean id sets (FastSet for pure membership, TrackedSet when
// members are also iterated), per-node message pooling (MsgPool), and the
// Outbox.Resend redundancy knob for lossy transports — idempotent control
// messages only; token batches and delta fragments are additive state and
// are never duplicated.
//
// Identities are protocol-level: random draws from [1, n^4] (RandomID),
// never node indices — the model is anonymous, and nothing in this
// package reads sim.Envelope.From.
package protocol
