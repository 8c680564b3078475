package serve_test

// Cluster-mode electd: the scheduler dispatches elections to a wire-level
// cluster and must produce byte-identical job results to the in-process
// engine for the same request — the determinism contract extended through
// the service layer.

import (
	"encoding/json"
	"testing"
	"time"

	"wcle/internal/cluster"
	"wcle/internal/serve"
)

// runJob submits a request and waits it out.
func runJob(t *testing.T, srv *serve.Server, req serve.SubmitRequest) serve.JobStatus {
	t.Helper()
	job, err := srv.Sched.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := job.Status()
		if st.State == serve.StateDone {
			return st
		}
		if st.State == serve.StateFailed {
			t.Fatalf("job failed: %s", st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return serve.JobStatus{}
}

func TestClusterModeMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full elections over loopback TCP; skipped in -short mode")
	}
	local, err := cluster.StartLocal(3)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	client, err := cluster.Dial(local.Coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	graphs := map[string]serve.GraphSpec{"g": {Family: "clique", N: 16, Seed: 3}}
	inproc, err := serve.NewServer(serve.Options{Graphs: graphs})
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := serve.NewServer(serve.Options{Graphs: graphs, Cluster: client})
	if err != nil {
		t.Fatal(err)
	}

	req := serve.SubmitRequest{Seed: 99, Points: []serve.PointSpec{
		{Graph: "g", Trials: 3, Algorithm: "kpprt"},
		{Graph: "g", Trials: 2},
	}}
	want := runJob(t, inproc, req)
	got := runJob(t, clustered, req)

	wantJSON, _ := json.Marshal(want.Result)
	gotJSON, _ := json.Marshal(got.Result)
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("cluster-mode job diverged from in-process:\n in-process: %s\n cluster:    %s", wantJSON, gotJSON)
	}
}

// TestClusterModeFaultsMatchInProcess: fault planes ride along on
// cluster dispatch (they are shard-safe), so a faulty job's result is
// byte-identical to the in-process engine too.
func TestClusterModeFaultsMatchInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs faulty elections over loopback TCP; skipped in -short mode")
	}
	local, err := cluster.StartLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	client, err := cluster.Dial(local.Coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	graphs := map[string]serve.GraphSpec{"g": {Family: "clique", N: 16, Seed: 1}}
	inproc, err := serve.NewServer(serve.Options{Graphs: graphs})
	if err != nil {
		t.Fatal(err)
	}
	clustered, err := serve.NewServer(serve.Options{Graphs: graphs, Cluster: client})
	if err != nil {
		t.Fatal(err)
	}

	req := serve.SubmitRequest{Seed: 7, Points: []serve.PointSpec{
		{Graph: "g", Trials: 2, Fault: serve.FaultSpec{Drop: 0.05, DelayMax: 2}},
		{Graph: "g", Trials: 2, Algorithm: "kpprt", Fault: serve.FaultSpec{CrashFrac: 0.2, CrashRound: 2}},
	}}
	want := runJob(t, inproc, req)
	got := runJob(t, clustered, req)

	wantJSON, _ := json.Marshal(want.Result)
	gotJSON, _ := json.Marshal(got.Result)
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("faulty cluster-mode job diverged from in-process:\n in-process: %s\n cluster:    %s", wantJSON, gotJSON)
	}
}
