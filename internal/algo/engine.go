package algo

import (
	"wcle/internal/core"
	"wcle/internal/engine"
	"wcle/internal/graph"
)

// This file is the bridge between the election-backend contract
// (Algorithm) and the generic protocol substrate (engine.Protocol). Every
// built-in backend is written as an ElectionProtocol; Algorithm is a thin
// adapter over it, and the same protocols are registered in the engine
// registry so protocol-generic layers (the cluster runtime, the protocol
// conformance battery, cmd/electsim -protocol) can run elections without
// knowing they are elections.

// ElectionProtocol is an engine.Protocol that can fold a finished run into
// an election Outcome. Finish receives the same instance Init produced
// (type-assert it to reach backend-native state), the engine-level result
// of the run, and the options it ran under.
type ElectionProtocol interface {
	engine.Protocol
	Finish(inst engine.Instance, res *engine.Result, opts engine.Options) (*Outcome, error)
}

// adapter makes an ElectionProtocol satisfy Algorithm.
type adapter struct {
	p ElectionProtocol
}

func (a adapter) Name() string { return a.p.Name() }

func (a adapter) Run(g *graph.Graph, opts engine.Options) (*Outcome, error) {
	out, _, err := runElection(a.p, g, opts)
	return out, err
}

// runElection is the one shared election path: Init, the generic engine
// run, Finish.
func runElection(p ElectionProtocol, g *graph.Graph, opts engine.Options) (*Outcome, *engine.Result, error) {
	inst, err := p.Init(g)
	if err != nil {
		return nil, nil, err
	}
	res, err := engine.RunInstance(p, g, inst, opts)
	if err != nil {
		return nil, nil, err
	}
	out, err := p.Finish(inst, res, opts)
	if err != nil {
		return nil, nil, err
	}
	return out, res, nil
}

// RunWithReport runs a (built by New) on g with per-node send counting on
// and also returns the engine-level report — the cluster runtime's path,
// where the keystone invariant is stated in per-node message counts.
func RunWithReport(a Algorithm, g *graph.Graph, opts engine.Options) (*Outcome, *engine.Result, error) {
	opts.CountSends = true
	return runElection(a.(adapter).p, g, opts)
}

// configFromEngine maps the engine registry's flat parameter set onto the
// backend constructor Config, mirroring the cluster JobSpec mapping: zero
// election knobs keep backend defaults.
func configFromEngine(e engine.Config) Config {
	cfg := Config{Horizon: e.Horizon}
	if e.Resend > 0 || e.AssumedN > 0 || e.C1 > 0 || e.C2 > 0 || e.MaxWalkLen > 0 || e.FixedTu > 0 {
		cc := core.DefaultConfig()
		cc.Resend = e.Resend
		cc.AssumedN = e.AssumedN
		if e.C1 > 0 {
			cc.C1 = e.C1
		}
		if e.C2 > 0 {
			cc.C2 = e.C2
		}
		if e.MaxWalkLen > 0 {
			cc.MaxWalkLen = e.MaxWalkLen
		}
		if e.FixedTu > 0 {
			cc.FixedWalkLen = e.FixedTu
		}
		cfg.Core = cc
	}
	cfg.Sublinear = SublinearConfig{C1: e.C1, C2: e.C2, Hops: e.Hops, Window: e.Window}
	return cfg
}

func init() {
	// Election backends join the generic protocol registry alongside the
	// engine's own substrates, built by the same constructors New wraps.
	for name, build := range builders {
		engine.Register(name, func(ecfg engine.Config) (engine.Protocol, error) {
			return build(configFromEngine(ecfg)), nil
		})
	}
}
