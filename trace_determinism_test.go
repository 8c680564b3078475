package wcle_test

// The observability spine's load-bearing contract: tracing is strictly
// observational. A run with a tracer attached must produce the
// byte-identical leader, rounds, message totals, and per-node send
// counts as the same seed without one — in the sim and over the wire
// (DESIGN.md section 10.1).

import (
	"reflect"
	"testing"

	"wcle"
	"wcle/internal/obs"
)

// TestTracerPreservesDeterminism runs the same elections with the tracer
// off and on (flight-ring sink) and demands identical results, under
// perfect delivery and under electd's drop-and-delay plane, where the
// tracer tallies fault events per round.
func TestTracerPreservesDeterminism(t *testing.T) {
	g, err := wcle.NewRandomRegular(64, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Planes are stateful per run: each run builds its own.
	planes := []struct {
		name string
		mk   func() wcle.FaultPlane
	}{
		{"perfect", func() wcle.FaultPlane { return nil }},
		{"faulty", func() wcle.FaultPlane { return wcle.FaultSpec{Drop: 0.05, DelayMax: 2}.Plane() }},
	}
	for _, protocol := range []string{wcle.DefaultAlgorithm(), "floodmax", "kpprt", "pushpull"} {
		t.Run(protocol, func(t *testing.T) {
			for _, plane := range planes {
				t.Run(plane.name, func(t *testing.T) {
					cfg := wcle.ProtocolConfig{Rumor: 7, Horizon: 200}
					plain, err := wcle.Run(protocol, g, cfg, wcle.AlgorithmOptions{Seed: 11, Fault: plane.mk()})
					if err != nil {
						t.Fatal(err)
					}
					ring := obs.NewRing(0)
					tr := obs.New(ring, 0)
					traced, err := wcle.Run(protocol, g, cfg, wcle.AlgorithmOptions{Seed: 11, Fault: plane.mk(), Tracer: tr})
					if err != nil {
						t.Fatal(err)
					}
					if tr.Emitted() == 0 {
						t.Fatal("the tracer saw nothing; the run was not actually traced")
					}
					assertTracedRunMatches(t, plain, traced)
					if plane.name == "faulty" && traced.Result.Metrics.Delayed == 0 {
						t.Fatal("no send was delayed; the faulty plane did not act")
					}
				})
			}
		})
	}
}

// assertTracedRunMatches demands the byte-identical outcome of an untraced
// and a traced run at the same seed.
func assertTracedRunMatches(t *testing.T, plain, traced *wcle.RunReport) {
	t.Helper()
	p, q := plain.Result, traced.Result
	if p.Rounds != q.Rounds || p.Metrics.Messages != q.Metrics.Messages || p.Metrics.Bits != q.Metrics.Bits {
		t.Fatalf("traced run diverged: rounds %d vs %d, messages %d vs %d, bits %d vs %d",
			p.Rounds, q.Rounds, p.Metrics.Messages, q.Metrics.Messages, p.Metrics.Bits, q.Metrics.Bits)
	}
	if p.Metrics.FaultDrops != q.Metrics.FaultDrops || p.Metrics.Delayed != q.Metrics.Delayed {
		t.Fatalf("traced run diverged: fault drops %d vs %d, delayed %d vs %d",
			p.Metrics.FaultDrops, q.Metrics.FaultDrops, p.Metrics.Delayed, q.Metrics.Delayed)
	}
	if !reflect.DeepEqual(p.PerNodeMessages, q.PerNodeMessages) {
		t.Fatal("per-node send counts diverged with the tracer attached")
	}
	if !reflect.DeepEqual(p.Outputs, q.Outputs) {
		t.Fatal("per-node outputs diverged with the tracer attached")
	}
	if plain.Election != nil || traced.Election != nil {
		if plain.Election == nil || traced.Election == nil ||
			!reflect.DeepEqual(plain.Election.Leaders, traced.Election.Leaders) {
			t.Fatalf("leaders diverged: %+v vs %+v", plain.Election, traced.Election)
		}
	}
}
