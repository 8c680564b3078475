package serve

import (
	"testing"
	"time"

	"wcle/internal/graph"
	"wcle/internal/spectral"
)

// A panic anywhere in a job's execution must fail that job, not kill the
// daemon (and with it every queued job).
func TestJobPanicConfined(t *testing.T) {
	reg := NewRegistry(spectral.ProfileOptions{})
	if _, err := reg.Register("k8", GraphSpec{Family: "clique", N: 8}); err != nil {
		t.Fatal(err)
	}
	reg.profileFn = func(g *graph.Graph) (*spectral.Profile, error) {
		panic("boom: injected profile panic")
	}
	s := NewScheduler(reg, NewMetrics(), SchedulerOptions{})
	job, err := s.Submit(SubmitRequest{Seed: 1, Points: []PointSpec{{Graph: "k8", Trials: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st := job.State(); st == StateDone || st == StateFailed {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := job.Status()
	if st.State != StateFailed {
		t.Fatalf("panicking job state = %q, want failed", st.State)
	}
	if st.Error == "" {
		t.Fatal("failed job carries no error")
	}
	// The worker survived and the poisoned cache entry resolved to an
	// error rather than an eternally in-flight computation: a follow-up
	// job on the same graph completes, with the cached panic surfaced as
	// the point's SpectralError.
	job2, err := s.Submit(SubmitRequest{Seed: 2, Points: []PointSpec{{Graph: "k8", Trials: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	for time.Now().Before(deadline) {
		if st := job2.State(); st == StateDone || st == StateFailed {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st2 := job2.Status()
	if st2.State != StateDone {
		t.Fatalf("second job state = %q, want done (worker alive, cache not wedged)", st2.State)
	}
	if st2.Result.Points[0].SpectralError == "" {
		t.Fatal("cached panic not surfaced as the point's spectral error")
	}
}

// Oversized graph specs are rejected before any building happens.
func TestGraphSizeCaps(t *testing.T) {
	for _, spec := range []GraphSpec{
		{Family: "clique", N: 2000000000},
		{Family: "rr", N: MaxGraphNodes * 2, D: 8},
		{Family: "hypercube", Dim: 40},
		{Family: "torus", Rows: 1 << 16, Cols: 1 << 16},
		// Rows*Cols overflows int64; the guard must not be fooled by the
		// wrapped-negative product.
		{Family: "torus", Rows: 3037000500, Cols: 3037000500},
		{Family: "explicit", N: MaxGraphNodes * 2, Edges: [][2]int{{0, 1}}},
	} {
		if _, err := spec.Build(); err == nil {
			t.Errorf("oversized spec %+v not rejected", spec)
		}
	}
}

func TestFaultSpecValidate(t *testing.T) {
	if err := (FaultSpec{CrashRound: -5, CrashFrac: 0.2}).Validate(); err == nil {
		t.Fatal("negative crash_round not rejected")
	}
	if err := (FaultSpec{Drop: 0.5, DelayMax: 3, CrashFrac: 0.1, CrashRound: 2}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPointKeyPinned pins PointSpec.Key, the seed-derivation key of every
// electd point, to literal strings: a changed key would silently move the
// seeds of every request that replays it.
func TestPointKeyPinned(t *testing.T) {
	for _, c := range []struct {
		p    PointSpec
		want string
	}{
		{PointSpec{Graph: "rr64", Trials: 10}, "rr64|t10|r0|a0|f0:0:0:0"},
		{PointSpec{Graph: "k16", Trials: 3, Algorithm: "kpprt", Fault: FaultSpec{Drop: 0.05, DelayMax: 2}},
			"k16|t3|r0|a0|f0.05:2:0:0|kpprt"},
		{PointSpec{Graph: "rr64", Trials: 4, AssumedN: 32, Fault: FaultSpec{Byz: 0.15, CrashFrac: 0.1, CrashRound: 2}},
			"rr64|t4|r0|a32|f0:0:0.1:2|b0.15:[]"},
		{PointSpec{Graph: "rr64", Trials: 4, Fault: FaultSpec{ByzNodes: []int{1, 9}}},
			"rr64|t4|r0|a0|f0:0:0:0|b0:[1 9]"},
	} {
		if got := c.p.Key(); got != c.want {
			t.Errorf("Key() = %q, want %q", got, c.want)
		}
	}
}
