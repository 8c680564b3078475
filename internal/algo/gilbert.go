package algo

import (
	"fmt"
	"reflect"

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

// newGilbertRS18 builds the paper's algorithm from cfg.Core. Only an
// entirely zero Core section means core.DefaultConfig(); a partially
// filled one is used as-is, so core's "start from DefaultConfig" C1/C2
// validation still fails loudly instead of knobs being silently dropped.
func newGilbertRS18(cfg Config) ElectionProtocol {
	c := cfg.Core
	if reflect.DeepEqual(c, core.Config{}) {
		c = core.DefaultConfig()
	}
	return gilbert{name: GilbertRS18, cfg: c}
}

// newGilbertRS18Fixed builds the known-tmix baseline: the same core
// machinery in FixedWalkLen mode. A caller-supplied Core.FixedWalkLen is
// the walk length; otherwise it resolves to 4n at Init (graphs mixing
// slower than that — cycles — need an explicit value, exactly as
// gilbertrs18 needs MaxWalkLen raised there).
func newGilbertRS18Fixed(cfg Config) ElectionProtocol {
	c := cfg.Core
	if reflect.DeepEqual(c, core.Config{}) {
		c = core.DefaultConfig()
	}
	return gilbert{name: GilbertRS18Fixed, cfg: c, fixedAuto: c.FixedWalkLen <= 0}
}

func (a gilbert) Name() string { return a.name }

// Slots labels the engine-level output vector of core's nodes.
func (a gilbert) Slots() []string { return []string{"leader", "contender", "id"} }

// Init implements engine.Protocol.
func (a gilbert) Init(g *graph.Graph) (engine.Instance, error) {
	cfg := a.cfg
	if a.fixedAuto {
		cfg.FixedWalkLen = 4 * g.N()
	}
	return core.Build(g, cfg)
}

// Finish implements ElectionProtocol.
func (a gilbert) Finish(inst engine.Instance, eres *engine.Result, opts engine.Options) (*Outcome, error) {
	ci, ok := inst.(*core.Instance)
	if !ok {
		return nil, fmt.Errorf("algo: %s: unexpected instance type %T", a.name, inst)
	}
	res := ci.Collect(eres.Metrics)
	return &Outcome{
		Algorithm:   a.name,
		Leaders:     res.Leaders,
		LeaderIDs:   res.LeaderIDs,
		Success:     res.Success,
		Explicit:    false,
		Contenders:  len(res.Contenders),
		LeaderRound: res.LeaderRound,
		Rounds:      res.Rounds,
		Metrics:     res.Metrics,
		Detail:      res,
	}, nil
}
