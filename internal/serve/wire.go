package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"wcle/internal/algo"
	"wcle/internal/graph"
	"wcle/internal/sim"
	"wcle/internal/spectral"
	"wcle/internal/stats"
)

// This file is the HTTP/JSON wire contract of electd. Everything under
// "result" in a job response is a pure function of (registered graphs,
// request, seed) — wall-clock observations live in the separate "timing"
// object so deterministic replays stay byte-identical.

// GraphSpec names a graph to instantiate: a generator family with its
// parameters, or an explicit edge list. Seed feeds the family's generator
// (only the randomized families consume it).
type GraphSpec struct {
	// Family is one of clique, cycle, path, hypercube, torus, rr
	// (random regular), or explicit.
	Family string `json:"family"`
	N      int    `json:"n,omitempty"`
	D      int    `json:"d,omitempty"`    // rr degree
	Dim    int    `json:"dim,omitempty"`  // hypercube dimension
	Rows   int    `json:"rows,omitempty"` // torus
	Cols   int    `json:"cols,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	// Edges is the explicit family's undirected edge list over nodes
	// [0, N); N defaults to 1 + the largest endpoint.
	Edges [][2]int `json:"edges,omitempty"`
}

// Service-side graph size caps: registration runs the generator inline on
// the request path, so a single spec must not be able to stall or OOM the
// daemon (elections are already capped via MaxPointsPerJob/MaxTrialsPerPoint).
const (
	MaxGraphNodes = 1 << 20
	MaxGraphEdges = 1 << 24
)

// sizeEstimate returns the node and edge counts the spec would build
// (exact for the deterministic families, exact-by-construction for rr).
func (s GraphSpec) sizeEstimate() (nodes, edges int64) {
	n := int64(s.N)
	switch s.Family {
	case "clique":
		return n, n * (n - 1) / 2
	case "cycle", "path":
		return n, n
	case "hypercube":
		if s.Dim < 0 || s.Dim > 62 {
			return math.MaxInt64, math.MaxInt64
		}
		h := int64(1) << s.Dim
		return h, h * int64(s.Dim) / 2
	case "torus":
		// Guard the factors before multiplying: Rows*Cols can overflow
		// int64 and wrap negative, sneaking past the caps.
		if s.Rows < 0 || s.Cols < 0 || s.Rows > MaxGraphNodes || s.Cols > MaxGraphNodes {
			return math.MaxInt64, math.MaxInt64
		}
		t := int64(s.Rows) * int64(s.Cols)
		return t, 2 * t
	case "rr":
		return n, n * int64(s.D) / 2
	case "explicit":
		return int64(s.explicitN()), int64(len(s.Edges))
	default:
		return 0, 0
	}
}

// explicitN is the node count of the explicit family: the declared N or
// 1 + the largest edge endpoint, whichever is larger. The single source
// of truth for both the size-cap estimate and the actual build.
func (s GraphSpec) explicitN() int {
	n := s.N
	for _, e := range s.Edges {
		for _, v := range e {
			if v+1 > n {
				n = v + 1
			}
		}
	}
	return n
}

// Build instantiates the spec. Deterministic in the spec: the registry
// builds each named graph exactly once, but rebuilding would yield the
// identical port-numbered graph.
func (s GraphSpec) Build() (*graph.Graph, error) {
	if nodes, edges := s.sizeEstimate(); nodes > MaxGraphNodes || edges > MaxGraphEdges {
		return nil, fmt.Errorf("serve: graph spec too large (~%d nodes, ~%d edges; caps are %d nodes, %d edges)",
			nodes, edges, MaxGraphNodes, MaxGraphEdges)
	}
	rng := rand.New(rand.NewSource(s.Seed))
	switch s.Family {
	case "clique":
		return graph.Clique(s.N, rng)
	case "cycle":
		return graph.Cycle(s.N, rng)
	case "path":
		return graph.Path(s.N, rng)
	case "hypercube":
		return graph.Hypercube(s.Dim, rng)
	case "torus":
		return graph.Torus2D(s.Rows, s.Cols, rng)
	case "rr":
		return graph.RandomRegular(s.N, s.D, rng)
	case "explicit":
		if len(s.Edges) == 0 {
			return nil, errors.New("serve: explicit graph needs edges")
		}
		b := graph.NewBuilder(s.explicitN())
		for _, e := range s.Edges {
			if err := b.AddEdge(e[0], e[1]); err != nil {
				return nil, fmt.Errorf("serve: explicit edge (%d,%d): %w", e[0], e[1], err)
			}
		}
		return b.Build("explicit", rng)
	default:
		return nil, fmt.Errorf("serve: unknown graph family %q (want clique, cycle, path, hypercube, torus, rr, or explicit)", s.Family)
	}
}

// FaultSpec is the wire form of a delivery-plane adversary. Zero fields
// mean perfect delivery; combinations compose (drops and delays and
// crashes together).
type FaultSpec struct {
	// Drop loses each send independently with this probability.
	Drop float64 `json:"drop,omitempty"`
	// DelayMax adds a uniform extra delay in [0, DelayMax] rounds.
	DelayMax int `json:"delay_max,omitempty"`
	// CrashFrac crashes this node fraction at round CrashRound (default
	// round 1, the E15 convention: crashed from the start).
	CrashFrac  float64 `json:"crash_frac,omitempty"`
	CrashRound int     `json:"crash_round,omitempty"`
	// PartitionFrac cuts a sampled node fraction off from the rest during
	// rounds [PartitionFrom, PartitionTo); PartitionTo <= PartitionFrom
	// means the cut never heals (see sim.Partition).
	PartitionFrac float64 `json:"partition_frac,omitempty"`
	PartitionFrom int     `json:"partition_from,omitempty"`
	PartitionTo   int     `json:"partition_to,omitempty"`
	// Byz samples this node fraction as an active (Byzantine) adversary
	// whose every send is mutated in transit (sim.Byzantine).
	Byz float64 `json:"byz,omitempty"`
	// ByzNodes pins the adversary set explicitly and overrides Byz.
	ByzNodes []int `json:"byz_nodes,omitempty"`
}

// IsZero reports perfect delivery.
func (f FaultSpec) IsZero() bool {
	return f.Drop == 0 && f.DelayMax == 0 && f.CrashFrac == 0 && f.PartitionFrac == 0 &&
		f.Byz == 0 && len(f.ByzNodes) == 0
}

// Validate rejects nonsense before a job is queued.
func (f FaultSpec) Validate() error {
	if f.Drop < 0 || f.Drop >= 1 {
		return fmt.Errorf("serve: fault drop %v out of [0,1)", f.Drop)
	}
	if f.DelayMax < 0 {
		return fmt.Errorf("serve: fault delay_max %d negative", f.DelayMax)
	}
	if f.CrashFrac < 0 || f.CrashFrac >= 1 {
		return fmt.Errorf("serve: fault crash_frac %v out of [0,1)", f.CrashFrac)
	}
	if f.CrashRound < 0 {
		return fmt.Errorf("serve: fault crash_round %d negative", f.CrashRound)
	}
	if f.PartitionFrac < 0 || f.PartitionFrac >= 1 {
		return fmt.Errorf("serve: fault partition_frac %v out of [0,1)", f.PartitionFrac)
	}
	if f.PartitionFrom < 0 || f.PartitionTo < 0 {
		return fmt.Errorf("serve: fault partition rounds [%d,%d) negative", f.PartitionFrom, f.PartitionTo)
	}
	if f.Byz < 0 || f.Byz >= 1 {
		return fmt.Errorf("serve: fault byz %v out of [0,1)", f.Byz)
	}
	for _, v := range f.ByzNodes {
		if v < 0 {
			return fmt.Errorf("serve: fault byz_nodes contains negative node %d", v)
		}
	}
	return nil
}

// Plane builds a fresh fault-plane instance (planes are stateful per run,
// so the scheduler calls this once per trial).
func (f FaultSpec) Plane() sim.FaultPlane {
	var planes []sim.FaultPlane
	if f.Drop > 0 {
		planes = append(planes, &sim.Drop{P: f.Drop})
	}
	if f.DelayMax > 0 {
		planes = append(planes, &sim.Delay{Max: f.DelayMax})
	}
	if f.CrashFrac > 0 {
		round := f.CrashRound
		if round <= 0 {
			round = 1
		}
		planes = append(planes, &sim.CrashSample{Frac: f.CrashFrac, Round: round})
	}
	if f.PartitionFrac > 0 {
		planes = append(planes, &sim.Partition{Frac: f.PartitionFrac, From: f.PartitionFrom, To: f.PartitionTo})
	}
	if f.Byz > 0 || len(f.ByzNodes) > 0 {
		planes = append(planes, &sim.Byzantine{Frac: f.Byz, Nodes: f.ByzNodes})
	}
	return sim.Compose(planes...)
}

// PointSpec is one (graph, configuration) cell of a batch-election job.
type PointSpec struct {
	// Graph names a registered graph.
	Graph string `json:"graph"`
	// Trials is the number of independent elections.
	Trials int `json:"trials"`
	// Algorithm names the election backend from the algo registry
	// (gilbertrs18, floodmax, kpprt, ...). Empty means the default
	// (gilbertrs18); validated at submission.
	Algorithm string `json:"algorithm,omitempty"`
	// Resend retransmits idempotent protocol messages (core.Config.Resend;
	// gilbertrs18 only, other backends ignore it).
	Resend int `json:"resend,omitempty"`
	// AssumedN overrides every node's belief of n (the Section 5 knob;
	// gilbertrs18 only).
	AssumedN int `json:"assumed_n,omitempty"`
	// Fault is the per-trial delivery-plane adversary.
	Fault FaultSpec `json:"fault,omitempty"`
}

// Key is the point's stable identity inside its job: the seed-derivation
// key, so a point's trials replay identically wherever the point sits in
// the request and whatever the worker count. The algorithm name enters
// the key only when it differs from the default, so requests predating
// the backend registry (and requests naming the default explicitly)
// replay the exact seeds they always had.
func (p PointSpec) Key() string {
	key := fmt.Sprintf("%s|t%d|r%d|a%d|f%.6g:%d:%.6g:%d",
		p.Graph, p.Trials, p.Resend, p.AssumedN,
		p.Fault.Drop, p.Fault.DelayMax, p.Fault.CrashFrac, p.Fault.CrashRound)
	if alg := algo.Resolve(p.Algorithm); alg != algo.DefaultName {
		key += "|" + alg
	}
	// The byzantine component enters the key only when set, so every
	// pre-existing request replays the exact seeds it always had.
	if p.Fault.Byz != 0 || len(p.Fault.ByzNodes) > 0 {
		key += fmt.Sprintf("|b%.6g:%v", p.Fault.Byz, p.Fault.ByzNodes)
	}
	return key
}

// SubmitRequest is the body of POST /v1/elections.
type SubmitRequest struct {
	// Seed is the job's master seed; per-point and per-trial seeds derive
	// from it via the experiments seed contract.
	Seed   int64       `json:"seed"`
	Points []PointSpec `json:"points"`
}

// Validate rejects malformed submissions with a client error before they
// consume a queue slot.
func (r SubmitRequest) Validate(reg *Registry) error {
	if len(r.Points) == 0 {
		return errors.New("serve: submission has no points")
	}
	if len(r.Points) > MaxPointsPerJob {
		return fmt.Errorf("serve: %d points exceeds the per-job cap %d", len(r.Points), MaxPointsPerJob)
	}
	for i, p := range r.Points {
		if p.Graph == "" {
			return fmt.Errorf("serve: point %d names no graph", i)
		}
		if _, ok := reg.Get(p.Graph); !ok {
			return fmt.Errorf("serve: point %d: unknown graph %q (register it via POST /v1/graphs)", i, p.Graph)
		}
		if p.Trials <= 0 || p.Trials > MaxTrialsPerPoint {
			return fmt.Errorf("serve: point %d: trials %d out of [1,%d]", i, p.Trials, MaxTrialsPerPoint)
		}
		if p.Algorithm != "" && !algo.Known(p.Algorithm) {
			return fmt.Errorf("serve: point %d: unknown algorithm %q (known: %v)", i, p.Algorithm, algo.Names())
		}
		if p.Resend < 0 || p.AssumedN < 0 {
			return fmt.Errorf("serve: point %d: negative knob", i)
		}
		if err := p.Fault.Validate(); err != nil {
			return fmt.Errorf("serve: point %d: %w", i, err)
		}
	}
	return nil
}

// Request-size guards: a single job is bounded so the queue depth bounds
// total admitted work.
const (
	MaxPointsPerJob   = 64
	MaxTrialsPerPoint = 10000
)

// AggWire is the JSON form of a stats.Aggregate summary.
type AggWire struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	CILo   float64 `json:"ci_lo"`
	CIHi   float64 `json:"ci_hi"`
}

func aggWire(a stats.Agg) AggWire {
	return AggWire{N: a.N, Mean: a.Mean, Std: a.Std, Median: a.Median,
		Min: a.Min, Max: a.Max, CILo: a.CILo, CIHi: a.CIHi}
}

// PointResult is one point's deterministic outcome.
type PointResult struct {
	Graph string `json:"graph"`
	// Algorithm is the resolved backend that ran the point.
	Algorithm string `json:"algorithm"`
	Trials    int    `json:"trials"`
	// Seed is the point's derived base seed (trial i runs at
	// sim.DeriveSeed(Seed, i)), reported so any point is replayable in
	// isolation.
	Seed int64 `json:"seed"`

	// Outcome counts: exactly one leader, none, more than one.
	One   int `json:"one"`
	Zero  int `json:"zero"`
	Multi int `json:"multi"`
	// UniqueLeader reports one == trials.
	UniqueLeader bool `json:"unique_leader"`

	// Batch totals.
	Messages   int64 `json:"messages"`
	Bits       int64 `json:"bits"`
	Rounds     int64 `json:"rounds"`
	FaultDrops int64 `json:"fault_drops,omitempty"`
	Contenders int   `json:"contenders"`

	// Summaries aggregates the per-trial distributions ("rounds",
	// "messages", "contenders") as stats.Aggregate records.
	Summaries map[string]AggWire `json:"summaries"`

	// Spectral is the registry's cached profile of the point's graph —
	// the quantities the paper's O(tmix log^2 n) cost bound is written in
	// terms of, surfaced so callers can predict cost before paying for a
	// run. Omitted (with SpectralError set) when the profile computation
	// failed, e.g. a walk that does not mix within the step budget.
	Spectral      *spectral.Profile `json:"spectral,omitempty"`
	SpectralError string            `json:"spectral_error,omitempty"`
}

// JobResult is the deterministic part of a finished job.
type JobResult struct {
	Seed   int64         `json:"seed"`
	Points []PointResult `json:"points"`
}

// JobTiming is the wall-clock part of a job response: everything here
// varies run to run and is deliberately fenced off from JobResult.
type JobTiming struct {
	QueuedMs        float64 `json:"queued_ms"`
	RunMs           float64 `json:"run_ms"`
	ElectionsPerSec float64 `json:"elections_per_sec"`
}

// JobStatus is the body of GET /v1/elections/{id}.
type JobStatus struct {
	ID     string     `json:"id"`
	State  string     `json:"state"` // queued | running | done | failed
	Result *JobResult `json:"result,omitempty"`
	Timing *JobTiming `json:"timing,omitempty"`
	Error  string     `json:"error,omitempty"`
}

// GraphInfo is the body of GET /v1/graphs/{name}.
type GraphInfo struct {
	Name     string            `json:"name"`
	Spec     GraphSpec         `json:"spec"`
	N        int               `json:"n"`
	M        int               `json:"m"`
	Spectral *spectral.Profile `json:"spectral,omitempty"`
}

// RegisterRequest is the body of POST /v1/graphs.
type RegisterRequest struct {
	Name string    `json:"name"`
	Spec GraphSpec `json:"spec"`
}

// SubmitResponse is the 202 body of POST /v1/elections.
type SubmitResponse struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Location string `json:"location"`
}

// ProtocolInfo describes one registered engine protocol: its name, the
// labels of the per-node output vector it produces, and whether it is an
// election backend (and so also accepted by POST /v1/elections).
type ProtocolInfo struct {
	Name     string   `json:"name"`
	Slots    []string `json:"slots,omitempty"`
	Election bool     `json:"election"`
}

// ErrorResponse is every non-2xx JSON body.
type ErrorResponse struct {
	Error string `json:"error"`
}
