package algo

import (
	"fmt"
	"sort"

	"wcle/internal/core"
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

// Config is the union of the built-in backends' constructor knobs. A
// backend reads only its own section and ignores the rest, so one Config
// can parameterize a whole comparison sweep.
type Config struct {
	// Core parameterizes the gilbertrs18 backend. The (entirely) zero
	// value means core.DefaultConfig(); any non-zero field makes the
	// value be used as-is — callers overriding, say, Resend must start
	// from core.DefaultConfig, exactly as with core.Run.
	Core core.Config
	// Horizon is the floodmax decision round (0 = n).
	Horizon int
	// Sublinear parameterizes the kpprt backend (zero value = defaults).
	Sublinear SublinearConfig
}

// builders holds the built-in backends, each an ElectionProtocol that New
// wraps as an Algorithm and init registers in the engine registry.
var builders = map[string]func(cfg Config) ElectionProtocol{
	GilbertRS18:      newGilbertRS18,
	GilbertRS18Fixed: newGilbertRS18Fixed,
	FloodMax:         newFloodMax,
	KPPRT:            newSublinear,
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

// New builds a configured instance of the named backend ("" = default).
func New(name string, cfg Config) (Algorithm, error) {
	name = Resolve(name)
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("algo: unknown algorithm %q (known: %v)", name, Names())
	}
	return adapter{b(cfg)}, nil
}
