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
// second factor small. A queued message is a pointer-free value record in
// a per-port ring that reuses its storage under a standing backlog; its
// message object is built from the node's MsgPool only when Flush sends
// it, so an object lives for one round (the flush, then the receiver's
// Step, then back to a pool). Merge state (open fragments, queued token
// batches) names records by their position in the port's queue, and a
// per-tree Handle (an index, no hashing) finds it and names the record's
// origin. A fragment's first id lives in its record; further ids, which
// only modes above the CONGEST cap allow, live in a free-listed id buffer
// the record names by index. Per-edge id filtering lives where repeats
// arise: the outbox filters convergecasts, which reach a node from several
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
