package engine

import (
	"reflect"
	"testing"

	"wcle/internal/graph"
	"wcle/internal/obs"
	"wcle/internal/sim"
)

type stubObserver struct{}

func (stubObserver) OnSend(round, from, fromPort, to, toPort int, m sim.Message) {}

type stubFaultObserver struct{}

func (stubFaultObserver) OnFault(sim.FaultEvent) {}

// stubRemote satisfies sim.RemotePlane for comparison only; simConfig never
// calls it.
type stubRemote struct{ sim.RemotePlane }

// TestSimConfigWiresEveryOption walks every field of Options. Set alone to
// a non-zero value, each must change the sim.Config that simConfig builds;
// CountSends must instead install a SendCounter as the observer. A field
// without a value in the table fails the test, so a new knob gets wired
// and tested together.
func TestSimConfigWiresEveryOption(t *testing.T) {
	g, err := graph.Clique(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	values := map[string]interface{}{
		"Seed":          int64(7),
		"Budget":        int64(10),
		"MaxRounds":     5,
		"Concurrent":    true,
		"LeanMetrics":   true,
		"DebugFrom":     true,
		"CountSends":    true,
		"Observer":      stubObserver{},
		"Fault":         &sim.Drop{P: 0.1},
		"FaultObserver": stubFaultObserver{},
		"Remote":        stubRemote{},
		"Tracer":        new(obs.Tracer),
	}
	lim := Limits{MaxMessageBits: 64, MaxRounds: 100}
	base, counter := simConfig(g, lim, Options{})
	if counter != nil {
		t.Fatal("zero options installed a send counter")
	}
	typ := reflect.TypeOf(Options{})
	if typ.NumField() != len(values) {
		t.Errorf("Options has %d fields, the table %d", typ.NumField(), len(values))
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		v, ok := values[f.Name]
		if !ok {
			t.Errorf("Options.%s has no test value: wire it in simConfig and add it here", f.Name)
			continue
		}
		var opts Options
		reflect.ValueOf(&opts).Elem().Field(i).Set(reflect.ValueOf(v))
		cfg, counter := simConfig(g, lim, opts)
		if f.Name == "CountSends" {
			if sc, ok := cfg.Observer.(*SendCounter); !ok || sc != counter || len(sc.Counts) != g.N() {
				t.Errorf("CountSends: observer %T, want the returned *SendCounter with %d counts", cfg.Observer, g.N())
			}
			continue
		}
		if reflect.DeepEqual(cfg, base) {
			t.Errorf("Options.%s does not reach the sim.Config", f.Name)
		}
	}
}
