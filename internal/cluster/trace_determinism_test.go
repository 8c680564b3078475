package cluster

import (
	"reflect"
	"testing"

	"wcle/internal/obs"
	"wcle/internal/serve"
)

// TestClusterTracerPreservesDeterminism is the wire-plane half of the
// observability contract (DESIGN.md section 10.1): attaching an extra
// trace sink to every shard must not perturb the election. A cluster
// run with an external TraceSink produces the identical leader, rounds,
// message totals, and per-node send counts as the same spec on a
// flight-ring-only cluster — and the sink actually sees the run. Both
// clusters run the spec under perfect delivery and under electd's
// drop-and-delay plane, where each shard tallies fault events per round.
func TestClusterTracerPreservesDeterminism(t *testing.T) {
	plainCluster, err := StartLocal(3)
	if err != nil {
		t.Fatal(err)
	}
	defer plainCluster.Close()
	sink := obs.NewRing(0)
	received := func() int64 { return int64(sink.Len()) + sink.Dropped() }
	tracedCluster, err := StartLocalWith(3, LocalOptions{TraceSink: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer tracedCluster.Close()

	for _, tc := range []struct {
		name  string
		fault serve.FaultSpec
	}{
		{"perfect", serve.FaultSpec{}},
		{"faulty", serve.FaultSpec{Drop: 0.05, DelayMax: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := JobSpec{
				Graph: serve.GraphSpec{Family: "rr", N: 24, D: 6, Seed: 7},
				Seed:  41,
				Fault: tc.fault,
			}
			plain, err := plainCluster.Run(spec)
			if err != nil {
				t.Fatalf("flight-ring-only cluster elect: %v", err)
			}
			before := received()
			traced, err := tracedCluster.Run(spec)
			if err != nil {
				t.Fatalf("traced cluster elect: %v", err)
			}

			if received() == before {
				t.Fatal("the external trace sink saw nothing; the cluster run was not actually traced")
			}
			if len(tracedCluster.TraceEvents()) == 0 {
				t.Fatal("TraceEvents is empty on the traced cluster")
			}

			assertOutcomesMatch(t, &plain.Outcome, &traced.Outcome)
			if !reflect.DeepEqual(plain.PerNodeMessages, traced.PerNodeMessages) {
				t.Fatalf("per-node send counts diverged with a trace sink attached:\n  plain:  %v\n  traced: %v",
					plain.PerNodeMessages, traced.PerNodeMessages)
			}
			if !tc.fault.IsZero() && traced.Outcome.Metrics.Delayed == 0 {
				t.Fatal("no send was delayed; the faulty plane did not act")
			}
		})
	}
}
