// Package cluster is the wire-level runtime: it runs the registered
// protocols — the election backends among them — over real TCP between
// electnode processes, one process per shard of the graph.
//
// Every process hosts a contiguous slice of the graph's nodes and runs the
// ordinary sim engine over the full graph structure (built deterministically
// from the job's GraphSpec), stepping only its own nodes. Edges whose
// endpoints live in the same shard short-circuit through the in-memory
// transport; cross-shard edges travel as length-prefixed binary envelopes
// (internal/wire) over one TCP connection per process pair. A
// peer-to-peer round barrier preserves the synchronous-round semantics:
// after each stepped round every shard flushes its cross-shard traffic to
// every peer, its earliest pending event round riding the final data
// chunk, and every shard adopts the minimum over all shards — so the
// cluster skips idle rounds exactly like the single-process scheduler,
// and a run's outcome is byte-identical to the in-process sim for the
// same seed (the keystone invariant, enforced by
// TestClusterMatchesInProcessSim).
//
// Topology and session flow:
//
//   - shard 0 is the coordinator: it listens, admits the other shards
//     (hello → peer directory → pairwise dials → up), and owns job
//     control (start/result);
//   - workers join via the coordinator's bootstrap address, listen for
//     their higher-numbered peers, and dial their lower-numbered ones;
//   - clients (cmd/electnode -submit, electd's cluster mode, the wcle
//     facade's ElectCluster) dial the coordinator and submit JobSpecs;
//     the coordinator fans the job out, runs its own shard, and answers.
//
// Every job takes one path, whichever way its spec names the protocol
// (Algorithm with the flat election knobs, or Protocol with an
// engine.Config): each shard runs the protocol through engine.Run and
// reports only its hosted rows of the output matrix and its own
// accounting. The coordinator reassembles the whole engine.Result, fails
// the job if any node's row is missing, and for an election calls the
// backend's Finish — the fold an in-process algo.Run calls — so the two
// planes agree on the Outcome by construction.
//
// The barrier is one peer-to-peer phase: data frames carry an epoch, so
// every shard can verify it is in the same iteration, and the final chunk
// to each peer carries the sender's next-event contribution, so no
// control frame crosses per round. Every process of a cluster runs the
// same build: each hello carries the wire-protocol version, and a joiner
// speaking another version is refused.
//
// Fault planes ride along on cluster runs: every plane the wire spec can
// express (drop, delay, crash, partition, and their compositions) keys
// its randomness per sending node, so each shard reproduces exactly the
// fate stream of the senders it hosts and a faulty cluster run stays
// byte-identical to the in-process sim at the same seed (the fault-parity
// suite in conformance_test.go enforces this per backend). Message
// budgets remain rejected: a budget consumes one stream ordered by the
// global send sequence, which a sharded run does not reproduce (see
// sim.RemotePlane and sim.ShardAware).
//
// Sessions can also run supervised (Coordinator.Supervise): the election
// winner holds a lease, workers heartbeat, and the supervisor answers
// shard death — detected through connection errors or heartbeat silence —
// with an epoch bump, a marker-exchange quiesce of the survivors, and a
// re-election over the induced survivor subgraph. Crashed shards that
// dial back in are folded in the same way. See supervisor.go.
package cluster
