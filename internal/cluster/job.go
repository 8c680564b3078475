package cluster

// Job layer: what one job looks like on the wire (JobSpec), how one shard
// executes its slice of it (runShard), and how the coordinator reassembles
// the shards' rows into one engine.Result and folds it (merge).

import (
	"fmt"

	"wcle/internal/algo"
	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/obs"
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
	// of Algorithm — push-pull broadcast, a BFS tree, an aggregation, or
	// any election by name — and Engine parameterizes it in place of the
	// flat knobs below. Both spellings run the same job path.
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

// protocol resolves the spec's protocol before any wire activity starts:
// the engine-registry protocol Protocol names, built from Engine, or else
// the election backend Algorithm names, built from the flat knobs.
// Resolving before the plane exists keeps a bad spec from ever touching
// the barrier.
func (s JobSpec) protocol() (engine.Protocol, error) {
	if s.Protocol != "" {
		return engine.New(s.Protocol, s.Engine)
	}
	return algo.New(s.Algorithm, s.config())
}

// Result is a merged cluster job.
type Result struct {
	// Outcome is the election summary: the backend's Finish applied to
	// Engine, the same fold an in-process run applies to its own report,
	// so it matches an in-process run of the same (graph, backend, seed)
	// field for field. The one exception is Metrics.BusyRounds, the
	// maximum over shards (each shard only observes its own busy rounds).
	// A protocol that is not an election leaves only Algorithm (its name),
	// LeaderRound (-1), Rounds and Metrics set.
	Outcome algo.Outcome `json:"outcome"`
	// Engine is the reassembled protocol-level report: the full Outputs
	// matrix (each shard contributes its hosted rows), the protocol name
	// and slot labels, the per-node send counts and the summed metrics.
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

// partialResult is one shard's contribution, as it crosses the wire: its
// hosted rows of the output matrix and its own accounting.
type partialResult struct {
	Shard int    `json:"shard"`
	JobID int64  `json:"job_id"`
	Err   string `json:"err,omitempty"`

	// Lo is the shard's first node; Outputs[i] is node Lo+i's output
	// vector and NodeMessages[i] counts its sends.
	Lo           int         `json:"lo"`
	Outputs      [][]int64   `json:"outputs,omitempty"`
	NodeMessages []int64     `json:"node_messages"`
	Metrics      sim.Metrics `json:"metrics"`

	Wire WireStats `json:"wire"`
}

// runShard executes one shard's slice of a job. It always returns a
// partialResult; failures ride in its Err field so the coordinator can
// merge errors like outcomes. links is indexed by shard id (nil at own);
// compress is the session's data-frame compression setting; tr (nil ok)
// records the shard's job span and the run's round spans.
func runShard(links []*link, shard, shards int, jobID int64, spec JobSpec, compress bool, tr *obs.Tracer) partialResult {
	pr := partialResult{Shard: shard, JobID: jobID}
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
	p, err := spec.protocol()
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
	jobSp := tr.Start("job", p.Name(), -1)
	jobSp.Arg("job_id", jobID)
	jobSp.Arg("seed", spec.Seed)
	jobSp.Arg("nodes", int64(g.N()))
	res, err := engine.Run(p, g, engine.Options{
		Seed:       spec.Seed,
		MaxRounds:  spec.MaxRounds,
		DebugFrom:  spec.DebugFrom,
		CountSends: true,
		Fault:      spec.Fault.Plane(),
		Remote:     pl,
		Tracer:     tr,
	})
	jobSp.Arg("envelopes", pl.stats.Envelopes)
	jobSp.Arg("barriers", pl.stats.Barriers)
	jobSp.End()
	pr.Wire = pl.stats
	if err != nil {
		// The run died mid-barrier (a step error, a broken link, the
		// round cap): peers may be blocked on our next frame, so the
		// session is broken — say so on every link before reporting.
		_ = pl.abort(err)
		pr.Err = err.Error()
		return pr
	}
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
	pr.Outputs = res.Outputs[lo:hi]
	pr.NodeMessages = res.PerNodeMessages[lo:hi]
	pr.Metrics = res.Metrics
	return pr
}

// merge reassembles the per-shard partials of a job of protocol p into
// one engine.Result over n nodes and folds it: an election's Outcome comes
// from the same Finish an in-process run calls. Every node's row must
// arrive with one entry per slot; a job that leaves one out fails rather
// than fold a zero row.
func merge(p engine.Protocol, n, shards int, parts []partialResult) (*Result, error) {
	for _, pt := range parts {
		if pt.Err != "" {
			return nil, fmt.Errorf("cluster: shard %d: %s", pt.Shard, pt.Err)
		}
	}
	res := &Result{Shards: shards, N: n, PerNodeMessages: make([]int64, n)}
	eres := &engine.Result{
		Protocol:        p.Name(),
		Slots:           p.Slots(),
		Outputs:         make([][]int64, n),
		PerNodeMessages: res.PerNodeMessages,
		Metrics:         sim.Metrics{ByKind: make(map[string]int64)},
	}
	m := &eres.Metrics
	for _, pt := range parts {
		res.Wire.add(pt.Wire)
		for i, c := range pt.NodeMessages {
			if v := pt.Lo + i; v >= 0 && v < n {
				res.PerNodeMessages[v] = c
			}
		}
		for i, o := range pt.Outputs {
			if v := pt.Lo + i; v >= 0 && v < n {
				eres.Outputs[v] = o
			}
		}
		pm := pt.Metrics
		m.Messages += pm.Messages
		m.Bits += pm.Bits
		m.Dropped += pm.Dropped
		m.FaultDrops += pm.FaultDrops
		m.Delayed += pm.Delayed
		m.Mutated += pm.Mutated
		m.Deliveries += pm.Deliveries
		m.BusyRounds = max(m.BusyRounds, pm.BusyRounds)
		m.FinalRound = max(m.FinalRound, pm.FinalRound)
		for k, c := range pm.ByKind {
			m.ByKind[k] += c
		}
	}
	for v, o := range eres.Outputs {
		if len(o) != len(eres.Slots) {
			return nil, fmt.Errorf("cluster: node %d reported %d of %d output slots", v, len(o), len(eres.Slots))
		}
	}
	eres.Rounds = m.FinalRound
	res.Engine = eres
	if ep, ok := p.(algo.ElectionProtocol); ok {
		out, err := ep.Finish(eres)
		if err != nil {
			return nil, err
		}
		res.Outcome = *out
	} else {
		res.Outcome = algo.Outcome{Algorithm: p.Name(), LeaderRound: -1, Rounds: eres.Rounds, Metrics: eres.Metrics}
	}
	return res, nil
}
