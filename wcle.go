package wcle

import (
	"math/rand"

	"wcle/internal/algo"
	"wcle/internal/baseline"
	"wcle/internal/broadcast"
	"wcle/internal/cluster"
	"wcle/internal/core"
	"wcle/internal/engine"
	"wcle/internal/experiments"
	"wcle/internal/graph"
	"wcle/internal/protocol"
	"wcle/internal/serve"
	"wcle/internal/sim"
	"wcle/internal/spectral"
)

// Re-exported types. The facade aliases the internal types so downstream
// code only imports this package.
type (
	// Graph is an immutable simple undirected graph with the paper's
	// (possibly asymmetric) port numbering.
	Graph = graph.Graph
	// LowerBoundGraph is the Section 4.1 clique-of-cliques construction.
	LowerBoundGraph = graph.LowerBound
	// DumbbellGraph is the Section 5 two-bridge construction.
	DumbbellGraph = graph.Dumbbell
	// Config parameterizes the election algorithm (constants c1/c2, message
	// mode, ablations, test hooks).
	Config = core.Config
	// Options are the per-run knobs of every entry point (seed, budget,
	// fault plane, observers, tracer); see engine.Options.
	Options = engine.Options
	// Result summarizes one election run.
	Result = core.Result
	// ID is a protocol-level identity drawn from [1, n^4].
	ID = protocol.ID
	// Table is one experiment's rendered output.
	Table = experiments.Table
	// BroadcastResult reports a push-pull run.
	BroadcastResult = broadcast.Result
	// TreeResult reports a BFS spanning-tree construction.
	TreeResult = broadcast.TreeResult
	// FloodMaxResult reports the Omega(m)-class baseline.
	FloodMaxResult = baseline.FloodMaxResult

	// Protocol is the first-class contract every runtime layer runs: a
	// named per-node state machine with a declared output vector (see
	// internal/engine). Elections, broadcast, BFS trees, and aggregations
	// are all Protocols; Run executes any of them by registry name.
	Protocol = engine.Protocol
	// ProtocolConfig is the flat parameter set of the protocol registry
	// (each protocol reads only its own knobs).
	ProtocolConfig = engine.Config
	// ProtocolResult is the protocol-independent report of one run: the
	// per-node output matrix, per-node send counts, and run accounting.
	ProtocolResult = engine.Result
	// ProtocolOptions are the engine-level per-run knobs.
	ProtocolOptions = engine.Options
	// ProtocolBatchOptions parameterizes RunMany.
	ProtocolBatchOptions = engine.BatchOptions
	// ProtocolBatchResult aggregates a RunMany batch.
	ProtocolBatchResult = engine.BatchResult

	// FaultPlane is the delivery-plane adversary interface (see
	// internal/sim): Perfect, Drop, Delay, Crash, CrashSample, Partition,
	// Byzantine, or a Compose of them, all seed-deterministic.
	FaultPlane = sim.FaultPlane
	// Drop loses each send independently with probability P.
	Drop = sim.Drop
	// Delay adds a uniform extra delay in [0, Max] rounds to each send.
	Delay = sim.Delay
	// Crash stops nodes at explicitly scheduled rounds.
	Crash = sim.Crash
	// CrashSample crashes a sampled fraction of nodes at a given round.
	CrashSample = sim.CrashSample
	// Partition splits the graph into a seed-sampled minority/majority cut
	// and drops everything crossing it during rounds [From, To).
	Partition = sim.Partition
	// Byzantine is the active adversary: a sampled fraction (Frac) or
	// pinned set (Nodes) of nodes whose every send is mutated in transit —
	// equivocation, forgery, or bit corruption on the canonical wire
	// encoding, seed-deterministic like every other plane.
	Byzantine = sim.Byzantine

	// Algorithm is a pluggable election backend (see internal/algo): the
	// registry ships gilbertrs18 (the paper), floodmax (the Omega(m)
	// baseline), and kpprt (the sublinear candidate-sampling election of
	// Kutten et al.).
	Algorithm = algo.Algorithm
	// AlgorithmConfig is the union of the backends' constructor knobs.
	AlgorithmConfig = algo.Config
	// AlgorithmOptions are the per-run knobs of the election entry points
	// (the same type as Options).
	AlgorithmOptions = engine.Options
	// AlgorithmOutcome is the backend-independent election summary.
	AlgorithmOutcome = algo.Outcome
	// AlgorithmBatchOptions parameterizes ElectManyWith (the same type as
	// ProtocolBatchOptions).
	AlgorithmBatchOptions = engine.BatchOptions
	// AlgorithmBatchResult aggregates an ElectManyWith batch.
	AlgorithmBatchResult = algo.BatchResult

	// GraphSpec names a graph family + parameters (or an explicit edge
	// list) for the service layer's registry.
	GraphSpec = serve.GraphSpec
	// ClusterJob describes one election for the wire-level cluster
	// runtime (internal/cluster): a graph spec, a backend, a seed, and
	// the backend's regime knobs.
	ClusterJob = cluster.JobSpec
	// ClusterResult is a merged cluster election outcome: the
	// backend-independent summary plus per-node send counts and
	// bytes-on-the-wire accounting.
	ClusterResult = cluster.Result
	// LocalCluster is an in-process cluster on loopback TCP — real wire
	// protocol, no separate processes (tests, experiments, examples). Its
	// Kill/Restart crash and rejoin individual shards for fault drills.
	LocalCluster = cluster.Local
	// ClusterSupervision is an active supervised cluster session: leader
	// leases, heartbeat failure detection, automatic re-election over the
	// surviving membership (see cluster.Coordinator.Supervise).
	ClusterSupervision = cluster.Supervision
	// ClusterSuperviseConfig parameterizes a supervision.
	ClusterSuperviseConfig = cluster.SuperviseConfig
	// ClusterReign is one completed election under supervision.
	ClusterReign = cluster.Reign
	// ClusterEvent is one supervision state change (lease/death/rejoin).
	ClusterEvent = cluster.Event
	// LocalClusterOptions tunes a StartLocalClusterWith session:
	// compressed data frames and a trace sink.
	LocalClusterOptions = cluster.LocalOptions
	// FaultSpec is the wire form of a delivery-plane adversary.
	FaultSpec = serve.FaultSpec
	// GraphRegistry stores named graphs with memoized spectral profiles
	// behind a singleflight (see internal/serve).
	GraphRegistry = serve.Registry
	// ElectionServer is the electd HTTP service stack: registry +
	// bounded-queue scheduler + ops surface.
	ElectionServer = serve.Server
	// ServerOptions parameterizes NewElectionServer.
	ServerOptions = serve.Options
	// SpectralProfile is a graph's cached spectral characterization
	// (tmix, lambda_2, Cheeger conductance bounds).
	SpectralProfile = spectral.Profile
	// SpectralOptions bounds a profile computation.
	SpectralOptions = spectral.ProfileOptions
)

// ComposeFaults chains fault planes (drops combine, delays add, crashes
// union); nil and Perfect members are elided.
func ComposeFaults(planes ...FaultPlane) FaultPlane { return sim.Compose(planes...) }

// BuildGraph instantiates a GraphSpec (the registry does this once per
// registered name; this entry point is for ad-hoc use).
func BuildGraph(spec GraphSpec) (*Graph, error) { return spec.Build() }

// NewGraphRegistry returns an empty registry whose spectral profiles are
// computed at the given options (zero value = defaults).
func NewGraphRegistry(opts SpectralOptions) *GraphRegistry { return serve.NewRegistry(opts) }

// NewElectionServer builds the electd service stack (registry, bounded
// scheduler, ops metrics) without binding a listener; cmd/electd and
// embedders bring their own http.Server around Handler().
func NewElectionServer(opts ServerOptions) (*ElectionServer, error) { return serve.NewServer(opts) }

// Profile computes a graph's full spectral characterization — mixing time
// (exact on small graphs, sampled beyond SpectralOptions.ExactStartLimit),
// lambda_2, and the Cheeger conductance sandwich — in one call. The
// registry memoizes exactly this function per graph.
func Profile(g *Graph, opts SpectralOptions) (*SpectralProfile, error) {
	return spectral.ComputeProfile(g, opts)
}

// DefaultConfig returns the paper-faithful default parameters (c1=6, c2=2,
// natural log, CONGEST messages).
func DefaultConfig() Config { return core.DefaultConfig() }

// Algorithms lists the registered election backends (sorted).
func Algorithms() []string { return algo.Names() }

// Protocols lists every registered protocol (sorted): the election
// backends plus the dissemination substrates (pushpull, bfstree,
// aggregate). Any of these names runs through Run, RunMany, and a
// ClusterJob's Protocol field.
func Protocols() []string { return engine.Names() }

// DefaultAlgorithm is the backend Elect runs: the paper's algorithm.
func DefaultAlgorithm() string { return algo.DefaultName }

// RunReport is the outcome of one Run: the protocol-independent engine
// report, plus the election summary when the protocol is an election
// backend.
type RunReport struct {
	// Result is the engine-level report: per-node output vectors (labeled
	// by the protocol's slots), per-node send counts, and run accounting.
	Result *ProtocolResult
	// Election is the backend-independent election summary, non-nil
	// exactly when the protocol is a registered election backend.
	Election *AlgorithmOutcome
}

// Run executes any registered protocol by name ("" = the default election
// backend) on the in-process engine — elections, push-pull broadcast, BFS
// trees, and aggregations all run through this one entry point, under the
// same determinism contract: the same (protocol, graph, seed) produce
// identical outputs and per-node message counts on every delivery plane.
func Run(protocol string, g *Graph, cfg ProtocolConfig, opts AlgorithmOptions) (*RunReport, error) {
	if protocol == "" {
		protocol = algo.DefaultName
	}
	p, err := engine.New(protocol, cfg)
	if err != nil {
		return nil, err
	}
	inst, err := p.Init(g)
	if err != nil {
		return nil, err
	}
	opts.CountSends = true
	res, err := engine.RunInstance(p, g, inst, opts)
	if err != nil {
		return nil, err
	}
	rep := &RunReport{Result: res}
	if ep, ok := p.(algo.ElectionProtocol); ok {
		out, err := ep.Finish(inst, res, opts)
		if err != nil {
			return nil, err
		}
		rep.Election = out
	}
	return rep, nil
}

// RunMany runs many independent trials of the named protocol on g across
// a sharded worker pool; trial i runs at DeriveSeed(Base.Seed, i).
func RunMany(protocol string, g *Graph, cfg ProtocolConfig, opts ProtocolBatchOptions) (*ProtocolBatchResult, error) {
	if protocol == "" {
		protocol = algo.DefaultName
	}
	p, err := engine.New(protocol, cfg)
	if err != nil {
		return nil, err
	}
	return engine.RunMany(p, g, opts, nil)
}

// Elect runs the paper's implicit leader-election algorithm on g — the
// default backend of the algo registry.
//
// Deprecated: use Run(DefaultAlgorithm(), ...) (or ElectWith for the
// backend-native result without the engine report). Elect remains as a
// thin wrapper and keeps its exact behavior.
func Elect(g *Graph, cfg Config, opts Options) (*Result, error) {
	out, err := ElectWith(algo.GilbertRS18, g, AlgorithmConfig{Core: cfg}, opts)
	if err != nil {
		return nil, err
	}
	return out.Detail.(*core.Result), nil
}

// ElectWith runs one election of the named backend ("" = the default) on
// g with the backend-native configuration union.
//
// Deprecated: use Run, which executes the same backends through the
// protocol-generic engine and additionally reports per-node outputs and
// send counts. ElectWith remains for callers needing AlgorithmConfig
// knobs the flat ProtocolConfig cannot express (custom core.Config test
// hooks).
func ElectWith(algorithm string, g *Graph, cfg AlgorithmConfig, opts AlgorithmOptions) (*AlgorithmOutcome, error) {
	a, err := algo.New(algorithm, cfg)
	if err != nil {
		return nil, err
	}
	return a.Run(g, opts)
}

// ElectManyWith runs many independent elections of the named backend on g
// across a sharded worker pool, with the same seed-derivation contract as
// RunMany, and tallies their leader counts.
//
// Deprecated: use RunMany for the protocol-generic batch; ElectManyWith
// remains for election-shaped aggregation (leader/success tallies).
func ElectManyWith(algorithm string, g *Graph, cfg AlgorithmConfig, opts AlgorithmBatchOptions) (*AlgorithmBatchResult, error) {
	a, err := algo.New(algorithm, cfg)
	if err != nil {
		return nil, err
	}
	return algo.RunMany(g, a, opts)
}

// ElectCluster runs one election on a running wire-level cluster: it
// submits the job to the coordinator at the given address (see
// cmd/electnode) and blocks until the merged result. The determinism
// contract carries over the wire: the same ClusterJob elects the same
// leader with the same per-node message counts as the in-process sim.
func ElectCluster(coordinator string, job ClusterJob) (*ClusterResult, error) {
	return cluster.Submit(coordinator, job)
}

// StartLocalCluster assembles a shards-process-shaped cluster inside this
// process on loopback TCP. Close it when done.
func StartLocalCluster(shards int) (*LocalCluster, error) { return cluster.StartLocal(shards) }

// StartLocalClusterWith is StartLocalCluster with session options:
// Compress enables flate compression of large data frames, TraceSink
// receives every shard's trace events.
func StartLocalClusterWith(shards int, opt LocalClusterOptions) (*LocalCluster, error) {
	return cluster.StartLocalWith(shards, opt)
}

// FloodMax runs the Omega(m)-message flooding baseline (explicit election).
// horizon 0 means n rounds. ElectWith("floodmax", ...) is the registry
// route to the same algorithm with the full option set.
func FloodMax(g *Graph, seed int64, horizon int) (*FloodMaxResult, error) {
	return baseline.FloodMax(g, seed, horizon)
}

// PushPullOptions configures one PushPull run. The zero value spreads
// rumor 1 from node 0 for n rounds of push-pull at seed 0.
type PushPullOptions struct {
	// Source is the node that starts with the rumor.
	Source int
	// Rumor is the nonzero id being spread (0 defaults to 1) — e.g. the
	// elected leader's id in the Corollary 14 composition.
	Rumor ID
	// Seed drives the random neighbor choices deterministically.
	Seed int64
	// Horizon is the number of gossip rounds (0 defaults to n).
	Horizon int
	// PushOnly disables pull requests from uninformed nodes.
	PushOnly bool
}

// PushPull spreads a rumor with push-pull (or push-only) gossip. It is
// the "pushpull" registered protocol under a domain-shaped signature;
// Run(engine's "pushpull", ...) exposes the raw per-node report.
func PushPull(g *Graph, opts PushPullOptions) (*BroadcastResult, error) {
	rumor := opts.Rumor
	if rumor == 0 {
		rumor = 1
	}
	horizon := opts.Horizon
	if horizon == 0 {
		horizon = g.N()
	}
	return broadcast.PushPull(g, opts.Source, rumor, opts.Seed, horizon, opts.PushOnly)
}

// BFSTree builds a BFS spanning tree by flooding (Theta(m) messages).
func BFSTree(g *Graph, root int, seed int64) (*TreeResult, error) {
	return broadcast.BFSTree(g, root, seed)
}

// MixingTime returns the exact lazy-walk mixing time at the paper's
// accuracy 1/(2n), searching up to tmax steps.
func MixingTime(g *Graph, tmax int) (int, error) { return spectral.MixingTime(g, tmax) }

// MixingTimeSampled estimates tmix from the given start nodes (exact on
// vertex-transitive graphs).
func MixingTimeSampled(g *Graph, tmax int, starts []int) (int, error) {
	return spectral.MixingTimeSampled(g, spectral.DefaultEps(g.N()), tmax, starts)
}

// Lambda2 computes the second eigenvalue of the lazy walk operator.
func Lambda2(g *Graph) (float64, error) { return spectral.Lambda2(g, 20000, 1e-12) }

// CheegerBounds converts lambda2 into the conductance sandwich
// 1-lambda2 <= phi <= 2 sqrt(1-lambda2).
func CheegerBounds(lambda2 float64) (lo, hi float64) { return spectral.CheegerBounds(lambda2) }

// Conductance returns the exact conductance for tiny graphs (n <= 22).
func Conductance(g *Graph) (float64, error) { return spectral.ConductanceBrute(g) }

// SweepConductance returns a spectral sweep-cut upper bound on phi.
func SweepConductance(g *Graph) (float64, error) {
	phi, _, err := spectral.SweepCut(g, 20000, 1e-12)
	return phi, err
}

// NewClique returns K_n.
func NewClique(n int, seed int64) (*Graph, error) {
	return graph.Clique(n, rand.New(rand.NewSource(seed)))
}

// NewCycle returns the n-cycle.
func NewCycle(n int, seed int64) (*Graph, error) {
	return graph.Cycle(n, rand.New(rand.NewSource(seed)))
}

// NewHypercube returns the 2^dim-node hypercube.
func NewHypercube(dim int, seed int64) (*Graph, error) {
	return graph.Hypercube(dim, rand.New(rand.NewSource(seed)))
}

// NewTorus returns the rows x cols wraparound grid.
func NewTorus(rows, cols int, seed int64) (*Graph, error) {
	return graph.Torus2D(rows, cols, rand.New(rand.NewSource(seed)))
}

// NewRandomRegular returns a random simple connected d-regular graph
// (an expander w.h.p. for constant d >= 3).
func NewRandomRegular(n, d int, seed int64) (*Graph, error) {
	return graph.RandomRegular(n, d, rand.New(rand.NewSource(seed)))
}

// NewLowerBoundGraph builds the Section 4.1 graph with ~n nodes and
// conductance Theta(alpha), 1/n^2 < alpha < 1/144.
func NewLowerBoundGraph(n int, alpha float64, seed int64) (*LowerBoundGraph, error) {
	return graph.NewLowerBound(n, alpha, rand.New(rand.NewSource(seed)))
}

// NewDumbbell builds the Section 5 dumbbell from two random d-regular
// halves joined by two bridges.
func NewDumbbell(half, d int, seed int64) (*DumbbellGraph, error) {
	return graph.NewDumbbell(half, d, rand.New(rand.NewSource(seed)))
}

// NewDumbbellCliques builds the dumbbell from two cliques.
func NewDumbbellCliques(half int, seed int64) (*DumbbellGraph, error) {
	return graph.NewDumbbellCliques(half, rand.New(rand.NewSource(seed)))
}

// RunExperiment executes one of the reproduction experiments (E1..E18; see
// DESIGN.md) on the parallel harness and returns its table. quick shrinks
// sizes for smoke runs.
func RunExperiment(id string, seed int64, quick bool) (*Table, error) {
	if _, ok := experiments.Get(id); !ok {
		return nil, errUnknownExperiment(id)
	}
	return experiments.RunOne(experiments.SuiteConfig{Seed: seed, Quick: quick}, id)
}

// ExperimentIDs lists the available experiment ids.
func ExperimentIDs() []string { return experiments.IDs() }
