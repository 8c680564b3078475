package cluster

// Job layer: what one election looks like on the wire (JobSpec), how one
// shard executes its slice of it (runShard), and how the coordinator folds
// the per-shard partial outcomes back into one algo.Outcome (merge).

import (
	"fmt"
	"sort"

	"wcle/internal/algo"
	"wcle/internal/baseline"
	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/obs"
	"wcle/internal/protocol"
	"wcle/internal/serve"
	"wcle/internal/sim"
)

// JobSpec describes one election for the cluster to run. Every shard
// rebuilds the graph from the spec (deterministic in the spec), so only
// parameters cross the wire, never adjacency.
type JobSpec struct {
	// Graph is the election's graph (family + parameters or an explicit
	// edge list; see serve.GraphSpec).
	Graph serve.GraphSpec `json:"graph"`
	// Algorithm names the election backend ("" = the registry default).
	Algorithm string `json:"algorithm,omitempty"`
	// Protocol, when set, runs the named engine-registry protocol instead
	// of the election path — push-pull broadcast, a BFS tree, an
	// aggregation, or any election by name. The merged Result then carries
	// Engine (the reassembled protocol-level report); Outcome holds only
	// the summed metrics. Engine parameterizes the protocol.
	Protocol string        `json:"protocol,omitempty"`
	Engine   engine.Config `json:"engine,omitempty"`
	// Seed drives all randomness of the run deterministically: the same
	// seed elects the same leader as the in-process sim.
	Seed int64 `json:"seed"`
	// The election knobs are engine.Config's fields of the same names
	// (see JobSpec.config); zero keeps a backend's default. AssumedN, C1,
	// C2 and MaxWalkLen parameterize the gilbertrs18 backends, C1 and C2
	// also kpprt.
	AssumedN   int     `json:"assumed_n,omitempty"`
	C1         float64 `json:"c1,omitempty"`
	C2         float64 `json:"c2,omitempty"`
	MaxWalkLen int     `json:"max_walk_len,omitempty"`
	// FixedTu pins the single-phase walk length of the gilbertrs18-fixed
	// backend (core.Config.FixedWalkLen; 0 keeps that backend's 4n
	// default).
	FixedTu int `json:"fixed_tu,omitempty"`
	// Horizon parameterizes floodmax; Hops and Window parameterize kpprt.
	Horizon int `json:"horizon,omitempty"`
	Hops    int `json:"hops,omitempty"`
	Window  int `json:"window,omitempty"`
	// MaxRounds overrides the backend's round cap (0 = backend default).
	MaxRounds int `json:"max_rounds,omitempty"`
	// Fault is the delivery-plane adversary applied to the run. Every
	// plane the spec can express is shard-safe (sender-keyed randomness),
	// so a faulty cluster run stays byte-identical to the in-process sim
	// at the same seed.
	Fault serve.FaultSpec `json:"fault,omitempty"`
	// Members, when non-empty, restricts the election to the induced
	// subgraph over these original node indices (strictly ascending),
	// renumbered 0..len(Members)-1. Node i is hosted by the shard that
	// owned Members[i] in the full graph; shards left with no members sit
	// the job out. This is how re-elections run after a shard dies: the
	// survivors elect over what remains.
	Members []int `json:"members,omitempty"`
	// DebugFrom stamps sender indices on delivered envelopes (debugging
	// only; outcomes must not depend on it).
	DebugFrom bool `json:"debug_from,omitempty"`
}

// owners resolves the spec's node->shard table and the election graph.
// With no member list this is the full graph under the contiguous
// balanced assignment; with one, the induced subgraph with each member
// kept on its original owner.
func (s JobSpec) owners(g0 *graph.Graph, shards int) (*graph.Graph, []int, error) {
	if len(s.Members) == 0 {
		return g0, contiguousOwners(g0.N(), shards), nil
	}
	g, err := graph.Induced(g0, s.Members)
	if err != nil {
		return nil, nil, err
	}
	owner := make([]int, len(s.Members))
	for i, m := range s.Members {
		owner[i] = ownerOf(g0.N(), shards, m)
	}
	return g, owner, nil
}

// liveShards reports which shards host at least one node of the job.
// Shard 0 is always live: it is the job's barrier coordinator even when
// it hosts nothing.
func liveShards(owner []int, shards int) []bool {
	live := make([]bool, shards)
	live[0] = true
	for _, s := range owner {
		live[s] = true
	}
	return live
}

// config is the spec's election knobs as the engine's flat Config. The
// fields carry Config's names and JSON tags; each backend's constructor
// decides which of them it reads.
func (s JobSpec) config() engine.Config {
	return engine.Config{
		AssumedN:   s.AssumedN,
		C1:         s.C1,
		C2:         s.C2,
		MaxWalkLen: s.MaxWalkLen,
		FixedTu:    s.FixedTu,
		Horizon:    s.Horizon,
		Hops:       s.Hops,
		Window:     s.Window,
	}
}

// runner resolves the spec's execution path before any wire activity
// starts: the generic engine path when Protocol is set, the election
// backend otherwise. Both return the engine-level report (per-node send
// counts, and on the engine path the output matrix); the election path
// additionally returns the Outcome. Resolving before the plane exists
// keeps a bad spec from ever touching the barrier.
func (s JobSpec) runner() (func(g *graph.Graph, pl *plane, tr *obs.Tracer) (*algo.Outcome, *engine.Result, error), error) {
	opts := func(pl *plane, tr *obs.Tracer) engine.Options {
		return engine.Options{
			Seed:       s.Seed,
			MaxRounds:  s.MaxRounds,
			DebugFrom:  s.DebugFrom,
			CountSends: true,
			Fault:      s.Fault.Plane(),
			Remote:     pl,
			Tracer:     tr,
		}
	}
	if s.Protocol != "" {
		p, err := engine.New(s.Protocol, s.Engine)
		if err != nil {
			return nil, err
		}
		return func(g *graph.Graph, pl *plane, tr *obs.Tracer) (*algo.Outcome, *engine.Result, error) {
			res, err := engine.Run(p, g, opts(pl, tr))
			return nil, res, err
		}, nil
	}
	p, err := algo.New(s.Algorithm, s.config())
	if err != nil {
		return nil, err
	}
	return func(g *graph.Graph, pl *plane, tr *obs.Tracer) (*algo.Outcome, *engine.Result, error) {
		return algo.Run(p, g, opts(pl, tr))
	}, nil
}

// Result is a merged cluster election outcome.
type Result struct {
	// Outcome is the backend-independent summary, field-compatible with
	// an in-process run of the same (graph, algorithm, seed): identical
	// leaders, leader ids, contenders, rounds, and summed message/bit/
	// delivery accounting. Metrics.BusyRounds is the maximum over shards
	// (each shard only observes its own busy rounds); Detail is nil (the
	// backends' native results live on the shards).
	Outcome algo.Outcome `json:"outcome"`
	// Engine is the reassembled protocol-level report: the full Outputs
	// matrix (each shard contributes its hosted rows), the protocol name
	// and slot labels, and the summed metrics. Present whenever the job
	// ran through the engine path (JobSpec.Protocol set); nil on the
	// election path, whose report is Outcome.
	Engine *engine.Result `json:"engine,omitempty"`
	// PerNodeMessages[v] counts the sends of node v, assembled from the
	// owning shards — the per-node accounting the determinism contract
	// is stated in terms of.
	PerNodeMessages []int64 `json:"per_node_messages"`
	// Wire is the summed wire traffic of all shards.
	Wire WireStats `json:"wire"`
	// Shards is the cluster size; N the graph size.
	Shards int `json:"shards"`
	N      int `json:"n"`
}

// partialResult is one shard's contribution, as it crosses the wire.
type partialResult struct {
	Shard int    `json:"shard"`
	JobID int64  `json:"job_id"`
	Err   string `json:"err,omitempty"`

	Algorithm string `json:"algorithm,omitempty"`
	Explicit  bool   `json:"explicit,omitempty"`
	// Protocol, Slots and Outputs are the engine-path fields: the shard's
	// hosted rows of the output matrix (Outputs[i] is node Lo+i's decision
	// vector). Empty on the election path.
	Protocol string    `json:"protocol,omitempty"`
	Slots    []string  `json:"slots,omitempty"`
	Outputs  [][]int64 `json:"outputs,omitempty"`
	// AgreeID is floodmax's shard-local agreement value and MaxID its
	// largest hosted real id (both 0 for other backends): the merge
	// requires every shard to have agreed on the same value, and that
	// value to be the largest real id of the whole graph, or the election
	// is not explicit.
	AgreeID     uint64      `json:"agree_id,omitempty"`
	MaxID       uint64      `json:"max_id,omitempty"`
	Leaders     []int       `json:"leaders,omitempty"`
	LeaderIDs   []uint64    `json:"leader_ids,omitempty"`
	Contenders  int         `json:"contenders"`
	LeaderRound int         `json:"leader_round"`
	Rounds      int         `json:"rounds"`
	Metrics     sim.Metrics `json:"metrics"`

	// Lo is the shard's first node; NodeMessages[i] counts the sends of
	// node Lo+i.
	Lo           int     `json:"lo"`
	NodeMessages []int64 `json:"node_messages"`

	Wire WireStats `json:"wire"`
}

// runShard executes one shard's slice of a job. It always returns a
// partialResult; failures ride in its Err field so the coordinator can
// merge errors like outcomes. links is indexed by shard id (nil at own);
// compress is the session's data-frame compression setting; tr (nil ok)
// records the shard's job span and the run's round spans.
func runShard(links []*link, shard, shards int, jobID int64, spec JobSpec, compress bool, tr *obs.Tracer) partialResult {
	pr := partialResult{Shard: shard, JobID: jobID, LeaderRound: -1}
	g0, err := spec.Graph.Build()
	if err != nil {
		pr.Err = err.Error()
		return pr
	}
	if g0.N() < shards {
		pr.Err = fmt.Sprintf("cluster: %d-node graph cannot be split across %d shards", g0.N(), shards)
		return pr
	}
	g, owner, err := spec.owners(g0, shards)
	if err != nil {
		pr.Err = err.Error()
		return pr
	}
	run, err := spec.runner()
	if err != nil {
		pr.Err = err.Error()
		return pr
	}
	// Shards with no members sit the job out: their links carry no data
	// frames this job, so mask them off the barrier.
	live := liveShards(owner, shards)
	jobLinks := make([]*link, len(links))
	for s, l := range links {
		if s < len(live) && live[s] {
			jobLinks[s] = l
		}
	}
	pl := newPlane(jobLinks, shard, shards, owner, compress, tr)
	jobName := spec.Algorithm
	if spec.Protocol != "" {
		jobName = spec.Protocol
	}
	if jobName == "" {
		jobName = "default"
	}
	jobSp := tr.Start("job", jobName, -1)
	jobSp.Arg("job_id", jobID)
	jobSp.Arg("seed", spec.Seed)
	jobSp.Arg("nodes", int64(g.N()))
	out, eres, err := run(g, pl, tr)
	jobSp.Arg("envelopes", pl.stats.Envelopes)
	jobSp.Arg("barriers", pl.stats.Barriers)
	jobSp.End()
	pr.Wire = pl.stats
	// A shard's nodes stay contiguous after induced renumbering (members
	// are ascending and original ranges are contiguous), so Lo + a slice
	// still describes them.
	lo, hi := 0, 0
	for v, s := range owner {
		if s != shard {
			continue
		}
		if hi == 0 {
			lo = v
		}
		hi = v + 1
	}
	pr.Lo = lo
	if eres != nil && len(eres.PerNodeMessages) >= hi {
		pr.NodeMessages = eres.PerNodeMessages[lo:hi]
	} else {
		pr.NodeMessages = make([]int64, hi-lo)
	}
	if err != nil {
		// The run died mid-barrier (a step error, a broken link, the
		// round cap): peers may be blocked on our next frame, so the
		// session is broken — say so on every link before reporting.
		_ = pl.abort(err)
		pr.Err = err.Error()
		return pr
	}
	if spec.Protocol != "" {
		// Engine path: the shard reports its hosted rows of the output
		// matrix and the protocol-level accounting; there is no Outcome.
		pr.Algorithm = eres.Protocol
		pr.Protocol = eres.Protocol
		pr.Slots = eres.Slots
		pr.Outputs = eres.Outputs[lo:hi]
		pr.Rounds = eres.Rounds
		pr.Metrics = eres.Metrics
		return pr
	}
	pr.Algorithm = out.Algorithm
	pr.Explicit = out.Explicit
	if fm, ok := out.Detail.(*baseline.FloodMaxResult); ok {
		pr.AgreeID, pr.MaxID = uint64(fm.AgreeID), uint64(fm.LeaderID)
	}
	pr.Leaders = out.Leaders
	for _, id := range out.LeaderIDs {
		pr.LeaderIDs = append(pr.LeaderIDs, uint64(id))
	}
	pr.Contenders = out.Contenders
	pr.LeaderRound = out.LeaderRound
	pr.Rounds = out.Rounds
	pr.Metrics = out.Metrics
	return pr
}

// merge folds the per-shard partials into one Result. Shards are expected
// in shard order (the coordinator collects them that way); leaders stay
// sorted because shards own contiguous ascending node ranges.
func merge(n, shards int, parts []partialResult) (*Result, error) {
	var firstErr error
	for _, p := range parts {
		if p.Err != "" && firstErr == nil {
			firstErr = fmt.Errorf("cluster: shard %d: %s", p.Shard, p.Err)
		}
	}
	res := &Result{Shards: shards, N: n, PerNodeMessages: make([]int64, n)}
	out := &res.Outcome
	out.LeaderRound = -1
	out.Explicit = true
	out.Metrics.ByKind = make(map[string]int64)
	var agreeID, maxID uint64
	for _, p := range parts {
		res.Wire.add(p.Wire)
		for i, c := range p.NodeMessages {
			if v := p.Lo + i; v < n {
				res.PerNodeMessages[v] = c
			}
		}
		if p.Err != "" {
			continue
		}
		if p.Protocol != "" {
			// Engine path: reassemble the output matrix from the shards'
			// hosted rows.
			if res.Engine == nil {
				res.Engine = &engine.Result{
					Protocol: p.Protocol,
					Slots:    p.Slots,
					Outputs:  make([][]int64, n),
				}
			}
			for i, o := range p.Outputs {
				if v := p.Lo + i; v < n {
					res.Engine.Outputs[v] = o
				}
			}
		}
		if out.Algorithm == "" {
			out.Algorithm = p.Algorithm
		}
		out.Leaders = append(out.Leaders, p.Leaders...)
		for _, id := range p.LeaderIDs {
			out.LeaderIDs = append(out.LeaderIDs, protocol.ID(id))
		}
		out.Contenders += p.Contenders
		out.Explicit = out.Explicit && p.Explicit
		if p.AgreeID != 0 {
			// Shards must have agreed on the same value: per-shard
			// agreement on different flood maxima (a horizon too short
			// for global convergence) is not an explicit election.
			if agreeID != 0 && p.AgreeID != agreeID {
				out.Explicit = false
			}
			agreeID = p.AgreeID
		}
		maxID = max(maxID, p.MaxID)
		if p.LeaderRound >= 0 && (out.LeaderRound < 0 || p.LeaderRound < out.LeaderRound) {
			out.LeaderRound = p.LeaderRound
		}
		if p.Rounds > out.Rounds {
			out.Rounds = p.Rounds
		}
		m := p.Metrics
		out.Metrics.Messages += m.Messages
		out.Metrics.Bits += m.Bits
		out.Metrics.Dropped += m.Dropped
		out.Metrics.FaultDrops += m.FaultDrops
		out.Metrics.Delayed += m.Delayed
		out.Metrics.Mutated += m.Mutated
		out.Metrics.Deliveries += m.Deliveries
		if m.BusyRounds > out.Metrics.BusyRounds {
			out.Metrics.BusyRounds = m.BusyRounds
		}
		if m.FinalRound > out.Metrics.FinalRound {
			out.Metrics.FinalRound = m.FinalRound
		}
		for k, v := range m.ByKind {
			out.Metrics.ByKind[k] += v
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if !sort.IntsAreSorted(out.Leaders) {
		// Shards report in order and own ascending ranges; unsorted
		// leaders mean a shard lied about its range.
		return nil, fmt.Errorf("cluster: merged leader list %v is not sorted", out.Leaders)
	}
	// The in-process rule: every node converged to the largest real id. A
	// forged flood value above it can win a shard's agreement, not this.
	out.Explicit = out.Explicit && agreeID == maxID
	out.Success = len(out.Leaders) == 1
	if res.Engine != nil {
		res.Engine.PerNodeMessages = res.PerNodeMessages
		res.Engine.Rounds = out.Rounds
		res.Engine.Metrics = out.Metrics
	}
	return res, nil
}
