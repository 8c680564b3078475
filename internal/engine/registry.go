package engine

import (
	"fmt"
	"sort"
	"sync"
)

// Built-in substrate protocol names. internal/algo registers the election
// backends under their algo registry names on top of these.
const (
	// PushPull is push-pull rumor spreading (Karp et al., the Corollary 14
	// dissemination substrate).
	PushPull = "pushpull"
	// BFSTree is flooding BFS spanning-tree construction (the Corollary 27
	// comparator).
	BFSTree = "bfstree"
	// Aggregate is spanning-tree max/sum aggregation: BFS joins, a
	// convergecast of the combined value, and a broadcast of the result.
	Aggregate = "aggregate"
)

// Config is the flat, wire-friendly parameter set a registry builder
// consumes. One struct covers every registered protocol (each reads the
// fields it understands and ignores the rest) so the cluster JobSpec, the
// HTTP API, and the CLI can all carry protocol parameters without
// per-protocol plumbing. The zero value means "defaults" for every
// protocol.
type Config struct {
	// Source is the originating node of a dissemination protocol
	// (pushpull rumor source).
	Source int `json:"source,omitempty"`
	// Rumor is the nonzero value pushpull spreads (default 1).
	Rumor uint64 `json:"rumor,omitempty"`
	// Horizon caps rumor-spreading rounds (pushpull; also the floodmax
	// election horizon). 0 = protocol default.
	Horizon int `json:"horizon,omitempty"`
	// PushOnly disables the pull half of pushpull.
	PushOnly bool `json:"push_only,omitempty"`
	// Root is the tree root of bfstree and aggregate.
	Root int `json:"root,omitempty"`
	// Op selects the aggregate combiner: "max" (default) or "sum".
	Op string `json:"op,omitempty"`

	// Election knobs, consumed by the backends internal/algo registers.
	AssumedN   int     `json:"assumed_n,omitempty"`
	C1         float64 `json:"c1,omitempty"`
	C2         float64 `json:"c2,omitempty"`
	MaxWalkLen int     `json:"max_walk_len,omitempty"`
	// FixedTu forces the known-mixing-time single-phase baseline's walk
	// length (gilbertrs18-fixed; 0 derives 4n from the graph).
	FixedTu int `json:"fixed_tu,omitempty"`
	Hops    int `json:"hops,omitempty"`
	Window  int `json:"window,omitempty"`

	// Defend wraps the built protocol in committee-sampled validation
	// (see WithCommittee): every logical send travels as repeated claim
	// frames and receivers reject claims without a byte-identical quorum —
	// the Byzantine defense, available to every registered protocol.
	Defend bool `json:"defend,omitempty"`
	// DefendCopies and DefendQuorum tune the defense (0 = defaults: 3
	// copies, quorum 2).
	DefendCopies int `json:"defend_copies,omitempty"`
	DefendQuorum int `json:"defend_quorum,omitempty"`
}

// Builder constructs a configured protocol.
type Builder func(cfg Config) (Protocol, error)

var (
	regMu    sync.RWMutex
	builders = map[string]Builder{
		PushPull:  newPushPull,
		BFSTree:   newBFSTree,
		Aggregate: newAggregate,
	}
)

// Register adds (or replaces) a named protocol builder. internal/algo
// registers the election backends from its init.
func Register(name string, b Builder) {
	if name == "" || b == nil {
		panic("engine: Register requires a name and a builder")
	}
	regMu.Lock()
	defer regMu.Unlock()
	builders[name] = b
}

// Known reports whether name is registered.
func Known(name string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := builders[name]
	return ok
}

// Names lists the registered protocols, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(builders))
	for name := range builders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// New builds the named protocol with cfg, wrapping it in the committee
// defense when cfg.Defend is set — so every caller that carries a Config
// (the cluster JobSpec, electd, the CLI) gets the defense without
// per-protocol plumbing.
func New(name string, cfg Config) (Protocol, error) {
	regMu.RLock()
	b, ok := builders[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown protocol %q (known: %v)", name, Names())
	}
	p, err := b(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Defend {
		return WithCommittee(p, CommitteeConfig{Copies: cfg.DefendCopies, Quorum: cfg.DefendQuorum})
	}
	return p, nil
}
