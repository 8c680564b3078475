package algo

import (
	"fmt"
	"sort"

	"wcle/internal/engine"
)

// Registry names of the built-in backends.
const (
	// GilbertRS18 is the paper's guess-and-double random-walk election.
	GilbertRS18 = "gilbertrs18"
	// FloodMax is the Omega(m)-message flooding baseline.
	FloodMax = "floodmax"
	// KPPRT is the sublinear candidate-sampling + referee-committee
	// election of Kutten et al.
	KPPRT = "kpprt"
	// GilbertRS18Fixed is the known-mixing-time single-phase baseline of
	// Kutten et al. [25]: the paper's machinery with FixedWalkLen pinned
	// (caller-supplied, or 4n by default) instead of guess-and-double.
	GilbertRS18Fixed = "gilbertrs18-fixed"
)

// DefaultName is the backend used when a caller names none.
const DefaultName = GilbertRS18

// builders holds the built-in backends. Each constructor reads the
// engine's flat Config directly, so it is the one place that says which
// knobs reach its backend and what a zero knob means. init registers the
// table in the engine registry; New is its typed lookup.
var builders = map[string]func(cfg engine.Config) ElectionProtocol{
	GilbertRS18:      newGilbertRS18,
	GilbertRS18Fixed: newGilbertRS18Fixed,
	FloodMax:         newFloodMax,
	KPPRT:            newSublinear,
}

func init() {
	// Protocol-generic layers (a cluster job's Protocol field, cmd/electsim
	// -protocol, the protocol batteries) build the same backends by name.
	for name, build := range builders {
		engine.Register(name, func(cfg engine.Config) (engine.Protocol, error) {
			return build(cfg), nil
		})
	}
}

// Known reports whether name is a registered backend.
func Known(name string) bool {
	_, ok := builders[name]
	return ok
}

// Names lists the registered backends, sorted.
func Names() []string {
	out := make([]string, 0, len(builders))
	for name := range builders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Resolve normalizes a backend name: empty means DefaultName.
func Resolve(name string) string {
	if name == "" {
		return DefaultName
	}
	return name
}

// New builds the named backend ("" = default) from cfg.
func New(name string, cfg engine.Config) (ElectionProtocol, error) {
	name = Resolve(name)
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("algo: unknown algorithm %q (known: %v)", name, Names())
	}
	return b(cfg), nil
}
