package algo

import (
	"wcle/internal/core"
	"wcle/internal/engine"
	"wcle/internal/graph"
)

// gilbert adapts internal/core (the paper's algorithm) to the
// ElectionProtocol contract. One type serves two registered backends: the
// guess-and-double election (GilbertRS18) and the known-mixing-time
// single-phase baseline of Kutten et al. (GilbertRS18Fixed), which pins
// core.Config.FixedWalkLen instead of guessing.
type gilbert struct {
	name string
	cfg  core.Config
	// fixedAuto resolves an unset FixedWalkLen to 4n at Init — the default
	// walk-length cap, here spent as the single phase's walk length.
	fixedAuto bool
}

// newGilbertRS18 builds the paper's algorithm from cfg's election knobs.
func newGilbertRS18(cfg engine.Config) ElectionProtocol {
	return gilbert{name: GilbertRS18, cfg: coreConfig(cfg)}
}

// newGilbertRS18Fixed builds the known-tmix baseline: the same core
// machinery in FixedWalkLen mode. A positive FixedTu is the walk length;
// otherwise it resolves to 4n at Init (graphs mixing slower than that —
// cycles — need an explicit value, exactly as gilbertrs18 needs
// MaxWalkLen raised there).
func newGilbertRS18Fixed(cfg engine.Config) ElectionProtocol {
	return gilbert{name: GilbertRS18Fixed, cfg: coreConfig(cfg), fixedAuto: cfg.FixedTu <= 0}
}

// coreConfig applies cfg's election knobs (AssumedN, C1, C2, MaxWalkLen,
// FixedTu) to core.DefaultConfig(); a knob that is not positive keeps the
// default.
func coreConfig(cfg engine.Config) core.Config {
	c := core.DefaultConfig()
	c.AssumedN = cfg.AssumedN
	if cfg.C1 > 0 {
		c.C1 = cfg.C1
	}
	if cfg.C2 > 0 {
		c.C2 = cfg.C2
	}
	if cfg.MaxWalkLen > 0 {
		c.MaxWalkLen = cfg.MaxWalkLen
	}
	if cfg.FixedTu > 0 {
		c.FixedWalkLen = cfg.FixedTu
	}
	return c
}

func (a gilbert) Name() string { return a.name }

// Slots labels the engine-level output vector of core's nodes.
func (a gilbert) Slots() []string { return contenderSlots() }

// Init implements engine.Protocol.
func (a gilbert) Init(g *graph.Graph) (engine.Instance, error) {
	cfg := a.cfg
	if a.fixedAuto {
		cfg.FixedWalkLen = 4 * g.N()
	}
	return core.Build(g, cfg)
}

// Finish implements ElectionProtocol.
func (a gilbert) Finish(res *engine.Result) (*Outcome, error) {
	return foldContenders(a.name, res), nil
}
