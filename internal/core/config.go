// Package core implements the paper's contribution: randomized implicit
// leader election by guess-and-double random walks (Algorithms 1 and 2).
//
// Contenders self-select with probability c1 log n / n, launch
// c2 sqrt(n log n) lazy random-walk tokens per phase with doubling length
// guesses, and stop once the Intersection Property (adjacency, via shared
// proxies, to at least (3/4) c1 log n other contenders) and the Distinctness
// Property (at least (c2/2) sqrt(n log n) distinct proxies) hold. A stopped
// contender with the maximum id in its two-hop id neighborhood I4 and no
// winner sighting elects itself and floods a winner message over the proxy
// overlay.
//
// Realization notes (see DESIGN.md for the full discussion): information
// flows incrementally along the per-contender walk trees — convergecast
// fragments and additive delta corrections upward, id-set floods downward,
// with per-edge duplicate filtering — while all *decisions* follow the
// paper's staged schedule (phase p spans 6T rounds with
// T = Theta(tu log^2 n); the stop/winner check happens at start + 4T, i.e.
// after the paper's walk stage and three exchange rounds would have
// completed). Stopped contenders latch their proxies with a FINAL flood and
// keep exchanging through them, which realizes the paper's "current or
// final guess" proxy definition and closes the cross-iteration relay needs
// of Claims 9-10; both behaviors can be ablated.
package core

import (
	"fmt"
	"math"

	"wcle/internal/protocol"
)

// Config parameterizes an election run. The zero value is NOT valid; use
// DefaultConfig and override fields as needed.
type Config struct {
	// C1 scales the contender sampling rate c1 log(n)/n and the
	// intersection threshold (3/4) c1 log(n). The paper requires a
	// "sufficiently large constant"; the E14 ablation quantifies this.
	C1 float64

	// C2 scales the number of walks per contender, c2 sqrt(n log n), and
	// the distinctness threshold (c2/2) sqrt(n log n). The paper wants
	// c2 >= 2.
	C2 float64

	// LogBase is the base of "log" in every formula above (the paper's
	// asymptotics hide it; the constants don't). Default e.
	LogBase float64

	// Mode selects CONGEST (O(log n)-bit) or the Lemma 12 large
	// (O(log^3 n)-bit) message regime.
	Mode protocol.Mode

	// TMult scales the stage length T = ceil(TMult * tu * ceil(log2 n)^2).
	// 0 means the paper's constant (25/16) * C1. The event-driven engine
	// skips idle rounds, so a generous T costs wall-clock nothing.
	TMult float64

	// MaxWalkLen caps the guess-and-double walk length; a contender whose
	// next guess would exceed it gives up (declares non-leader). 0 means
	// 4n, which is far beyond c3*tmix for every well-connected family.
	MaxWalkLen int

	// FixedWalkLen, when positive, switches to the known-mixing-time
	// baseline of Kutten et al. [25]: a single phase with tu = FixedWalkLen
	// and an unconditional stop after it.
	FixedWalkLen int

	// DisableInactiveExchange reproduces the paper-literal behavior where
	// stopped contenders no longer relay fresh adjacency information
	// (ablation E14a; can yield multiple leaders).
	DisableInactiveExchange bool

	// DisableDistinctness drops the Distinctness Property from the stop
	// rule (ablation E14b).
	DisableDistinctness bool

	// DisablePiggyback stops stamping winner ids on outgoing messages
	// (ablation; the paper's "appends it to all future messages").
	DisablePiggyback bool

	// AssumedN, when positive, makes every node believe the network has
	// AssumedN nodes instead of the true size. The paper's Theorem 28
	// experiment (Section 5) runs the algorithm on a dumbbell graph with
	// AssumedN set to one half's size: both halves elect, demonstrating
	// that knowledge of n is critical.
	AssumedN int

	// ForcedContenders, when non-nil, pins the contender set to exactly
	// these node indices instead of sampling (test hook).
	ForcedContenders []int

	// ForcedIDs, when non-nil, pins protocol ids per node index (test
	// hook); unlisted nodes draw randomly.
	ForcedIDs map[int]protocol.ID
}

// DefaultConfig returns the configuration used throughout the experiments.
func DefaultConfig() Config {
	return Config{C1: 6, C2: 2, LogBase: math.E, Mode: protocol.ModeCongest}
}

// Params are the resolved algorithm parameters for an n-node network,
// exposed for reporting and for the contender-concentration experiment.
type Params struct {
	ContenderProb     float64
	Walks             int
	InterThreshold    int
	DistinctThreshold int
	LogN              float64
	MaxWalkLen        int
}

// ResolveParams reports the parameters the algorithm would use on an n-node
// network under cfg.
func ResolveParams(n int, cfg Config) (Params, error) {
	rt, err := newRuntime(n, n, cfg)
	if err != nil {
		return Params{}, err
	}
	return Params{
		ContenderProb:     rt.pCont,
		Walks:             rt.walks,
		InterThreshold:    rt.interT,
		DistinctThreshold: rt.distT,
		LogN:              rt.logN,
		MaxWalkLen:        rt.cfg.MaxWalkLen,
	}, nil
}

// runtime holds the resolved, shared, immutable parameters of one run.
type runtime struct {
	cfg    Config
	n      int
	codec  *protocol.Codec
	sched  *schedule
	logN   float64 // log_base(n)
	walks  int     // c2 sqrt(n log n)
	pCont  float64 // contender probability
	interT int     // intersection threshold (other contenders)
	distT  int     // distinctness threshold (distinct proxies)
	forced map[int]bool
}

// newRuntime resolves parameters for a network the nodes BELIEVE has n
// nodes; actualN is the real node count of the graph (differing only in the
// Theorem 28 experiments driven by Config.AssumedN).
func newRuntime(n, actualN int, cfg Config) (*runtime, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: need n >= 2, got %d", n)
	}
	if actualN < n {
		actualN = n
	}
	if cfg.C1 <= 0 || cfg.C2 <= 0 {
		return nil, fmt.Errorf("core: C1 and C2 must be positive (got %v, %v); start from DefaultConfig", cfg.C1, cfg.C2)
	}
	if cfg.LogBase <= 1 {
		return nil, fmt.Errorf("core: LogBase must exceed 1, got %v", cfg.LogBase)
	}
	codec, err := protocol.NewCodec(n, cfg.Mode)
	if err != nil {
		return nil, err
	}
	logN := math.Log(float64(n)) / math.Log(cfg.LogBase)
	if cfg.MaxWalkLen == 0 {
		cfg.MaxWalkLen = 4 * n
	}
	if cfg.TMult == 0 {
		cfg.TMult = 25.0 / 16.0 * cfg.C1
	}
	rt := &runtime{
		cfg:    cfg,
		n:      n,
		codec:  codec,
		logN:   logN,
		walks:  int(math.Ceil(cfg.C2 * math.Sqrt(float64(n)*logN))),
		pCont:  math.Min(1, cfg.C1*logN/float64(n)),
		interT: int(math.Ceil(0.75 * cfg.C1 * logN)),
		distT:  int(math.Ceil(0.5 * cfg.C2 * math.Sqrt(float64(n)*logN))),
	}
	rt.sched, err = newSchedule(n, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.ForcedContenders != nil {
		rt.forced = make(map[int]bool, len(cfg.ForcedContenders))
		for _, v := range cfg.ForcedContenders {
			if v < 0 || v >= actualN {
				return nil, fmt.Errorf("core: forced contender %d out of range", v)
			}
			rt.forced[v] = true
		}
	}
	return rt, nil
}
