package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

func doJSON(t *testing.T, method, url string, body interface{}, out interface{}) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s %s response %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, raw
}

func waitForJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		code, raw := doJSON(t, "GET", base+"/v1/elections/"+id, nil, &st)
		if code != http.StatusOK {
			t.Fatalf("job status %d: %s", code, raw)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return JobStatus{}
}

func promValue(t *testing.T, base, metric string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(raw), "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, metric+" %f", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", metric, raw)
	return 0
}

// TestListProtocols: the protocol registry is discoverable over HTTP,
// election backends flagged apart from the dissemination substrates.
func TestListProtocols(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var infos []ProtocolInfo
	code, raw := doJSON(t, "GET", ts.URL+"/v1/protocols", nil, &infos)
	if code != http.StatusOK || len(infos) < 7 {
		t.Fatalf("list protocols: %d %s", code, raw)
	}
	byName := map[string]ProtocolInfo{}
	for _, info := range infos {
		byName[info.Name] = info
	}
	if p, ok := byName["pushpull"]; !ok || p.Election || len(p.Slots) == 0 {
		t.Fatalf("pushpull listing wrong: %+v", byName["pushpull"])
	}
	if p, ok := byName["gilbertrs18"]; !ok || !p.Election || len(p.Slots) == 0 {
		t.Fatalf("gilbertrs18 listing wrong: %+v", byName["gilbertrs18"])
	}
}

// TestEndToEndElection is the service smoke: register a clique over HTTP,
// submit a batch, poll to completion, check the unique leader and the
// summaries, and watch the spectral cache go from cold to hot in /metrics.
func TestEndToEndElection(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	base := ts.URL

	var info GraphInfo
	code, raw := doJSON(t, "POST", base+"/v1/graphs",
		RegisterRequest{Name: "k32", Spec: GraphSpec{Family: "clique", N: 32}}, &info)
	if code != http.StatusCreated || info.N != 32 {
		t.Fatalf("register: %d %s", code, raw)
	}

	submit := SubmitRequest{Seed: 7, Points: []PointSpec{{Graph: "k32", Trials: 6}}}
	var sub SubmitResponse
	code, raw = doJSON(t, "POST", base+"/v1/elections", submit, &sub)
	if code != http.StatusAccepted || sub.ID == "" {
		t.Fatalf("submit: %d %s", code, raw)
	}

	st := waitForJob(t, base, sub.ID)
	if st.State != StateDone {
		t.Fatalf("job failed: %+v", st)
	}
	if st.Result == nil || len(st.Result.Points) != 1 {
		t.Fatalf("missing result: %+v", st)
	}
	pt := st.Result.Points[0]
	if !pt.UniqueLeader || pt.One != 6 {
		t.Fatalf("no unique leader on a clique: %+v", pt)
	}
	if pt.Messages <= 0 || pt.Rounds <= 0 {
		t.Fatalf("empty totals: %+v", pt)
	}
	for _, key := range []string{"rounds", "messages", "contenders"} {
		agg, ok := pt.Summaries[key]
		if !ok || agg.N != 6 {
			t.Fatalf("summary %q missing or short: %+v", key, pt.Summaries)
		}
	}
	if pt.Spectral == nil || pt.Spectral.Tmix <= 0 {
		t.Fatalf("spectral profile not surfaced: %+v", pt)
	}
	if st.Timing == nil {
		t.Fatal("timing missing on a finished job")
	}

	// First job computed the profile once (a miss); a second job on the
	// same graph must hit the cache, observable in /metrics.
	if v := promValue(t, base, "electd_spectral_computes_total"); v != 1 {
		t.Fatalf("computes after first job = %v", v)
	}
	hitsBefore := promValue(t, base, "electd_spectral_cache_hits_total")
	code, raw = doJSON(t, "POST", base+"/v1/elections", submit, &sub)
	if code != http.StatusAccepted {
		t.Fatalf("second submit: %d %s", code, raw)
	}
	if st := waitForJob(t, base, sub.ID); st.State != StateDone {
		t.Fatalf("second job failed: %+v", st)
	}
	if v := promValue(t, base, "electd_spectral_computes_total"); v != 1 {
		t.Fatalf("second job recomputed the profile: computes = %v", v)
	}
	if v := promValue(t, base, "electd_spectral_cache_hits_total"); v <= hitsBefore {
		t.Fatalf("cache hit not observable: %v -> %v", hitsBefore, v)
	}
	if v := promValue(t, base, "electd_elections_served_total"); v != 12 {
		t.Fatalf("elections served = %v, want 12", v)
	}
	if v := promValue(t, base, "electd_jobs_done_total"); v != 2 {
		t.Fatalf("jobs done = %v, want 2", v)
	}

	// GET /v1/graphs/{name} serves the cached profile without recompute.
	code, raw = doJSON(t, "GET", base+"/v1/graphs/k32", nil, &info)
	if code != http.StatusOK || info.Spectral == nil {
		t.Fatalf("graph info: %d %s", code, raw)
	}
	if v := promValue(t, base, "electd_spectral_computes_total"); v != 1 {
		t.Fatalf("graph info recomputed the profile: %v", v)
	}
}

// TestDeterministicResults submits the identical request to two fresh
// server instances and requires byte-identical "result" objects — the
// service-level replay contract (wall clock lives in "timing", outside
// the comparison).
func TestDeterministicResults(t *testing.T) {
	req := SubmitRequest{Seed: 42, Points: []PointSpec{
		{Graph: "k16", Trials: 4},
		{Graph: "k16", Trials: 3, Fault: FaultSpec{Drop: 0.05}},
	}}
	results := make([][]byte, 2)
	for i := range results {
		_, ts := newTestServer(t, Options{
			Graphs: map[string]GraphSpec{"k16": {Family: "clique", N: 16}},
		})
		var sub SubmitResponse
		code, raw := doJSON(t, "POST", ts.URL+"/v1/elections", req, &sub)
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d %s", code, raw)
		}
		st := waitForJob(t, ts.URL, sub.ID)
		if st.State != StateDone {
			t.Fatalf("job failed: %+v", st)
		}
		b, err := json.Marshal(st.Result)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = b
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatalf("results differ across runs:\n%s\n%s", results[0], results[1])
	}
}

// TestAlgorithmBackends exercises the per-point "algorithm" field: one job
// runs all three registered backends on the same clique, every point must
// elect a unique leader, echo its resolved backend, and show up in the
// per-backend /metrics counters. Naming the default explicitly must
// replay the exact same point as omitting it (the seed-key contract).
func TestAlgorithmBackends(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Graphs: map[string]GraphSpec{"k32": {Family: "clique", N: 32}},
	})
	base := ts.URL

	run := func(req SubmitRequest) []PointResult {
		t.Helper()
		var sub SubmitResponse
		code, raw := doJSON(t, "POST", base+"/v1/elections", req, &sub)
		if code != http.StatusAccepted {
			t.Fatalf("submit: %d %s", code, raw)
		}
		st := waitForJob(t, base, sub.ID)
		if st.State != StateDone {
			t.Fatalf("job failed: %+v", st)
		}
		return st.Result.Points
	}

	pts := run(SubmitRequest{Seed: 11, Points: []PointSpec{
		{Graph: "k32", Trials: 4},
		{Graph: "k32", Trials: 4, Algorithm: "floodmax"},
		{Graph: "k32", Trials: 4, Algorithm: "kpprt"},
	}})
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	wantAlgo := []string{"gilbertrs18", "floodmax", "kpprt"}
	for i, pt := range pts {
		if pt.Algorithm != wantAlgo[i] {
			t.Fatalf("point %d: algorithm %q, want %q", i, pt.Algorithm, wantAlgo[i])
		}
		// Safety is absolute for every backend; the zero-leader tail is
		// the gilbertrs18 algorithm's documented w.h.p. slack (Lemma 11).
		if pt.Multi != 0 || pt.One < 3 {
			t.Fatalf("point %d (%s): outcomes %+v", i, pt.Algorithm, pt)
		}
		if pt.Algorithm != "gilbertrs18" && !pt.UniqueLeader {
			t.Fatalf("point %d (%s): no unique leader: %+v", i, pt.Algorithm, pt)
		}
		if pt.Messages <= 0 {
			t.Fatalf("point %d (%s): empty totals: %+v", i, pt.Algorithm, pt)
		}
	}
	// FloodMax on a clique must pay Omega(m) while kpprt stays sublinear.
	if pts[1].Messages <= pts[2].Messages {
		t.Fatalf("floodmax (%d msgs) should dwarf kpprt (%d msgs)", pts[1].Messages, pts[2].Messages)
	}

	// Omitting the algorithm and naming the default explicitly must be
	// the same point: identical seed key, identical result bytes.
	implicit := run(SubmitRequest{Seed: 23, Points: []PointSpec{{Graph: "k32", Trials: 4}}})
	explicit := run(SubmitRequest{Seed: 23, Points: []PointSpec{
		{Graph: "k32", Trials: 4, Algorithm: "gilbertrs18"}}})
	b0, _ := json.Marshal(implicit[0])
	b1, _ := json.Marshal(explicit[0])
	if !bytes.Equal(b0, b1) {
		t.Fatalf("default-algorithm points diverged:\n%s\n%s", b0, b1)
	}

	for algoName, want := range map[string]float64{"gilbertrs18": 12, "floodmax": 4, "kpprt": 4} {
		metric := fmt.Sprintf("electd_elections_by_algorithm_total{algorithm=%q}", algoName)
		if v := promValue(t, base, metric); v != want {
			t.Fatalf("%s = %v, want %v", metric, v, want)
		}
	}

	// Unknown backends are client errors at submission, not queued work.
	code, raw := doJSON(t, "POST", base+"/v1/elections", SubmitRequest{
		Seed: 1, Points: []PointSpec{{Graph: "k32", Trials: 1, Algorithm: "paxos"}},
	}, nil)
	if code != http.StatusBadRequest || !strings.Contains(string(raw), "unknown algorithm") {
		t.Fatalf("unknown algorithm: %d %s", code, raw)
	}
}

// TestBackpressure fills the bounded queue and requires 429 with
// Retry-After. The worker is held on the first job by the test hook, so
// queue occupancy is deterministic, not a race.
func TestBackpressure(t *testing.T) {
	running := make(chan struct{}, 8)
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{
		Workers:  1,
		QueueCap: 1,
		Graphs:   map[string]GraphSpec{"k8": {Family: "clique", N: 8}},
		testBeforeRun: func(j *Job) {
			running <- struct{}{}
			<-release
		},
	})
	defer close(release)

	submit := func() (int, []byte) {
		return doJSON(t, "POST", ts.URL+"/v1/elections",
			SubmitRequest{Seed: 1, Points: []PointSpec{{Graph: "k8", Trials: 1}}}, nil)
	}
	// Job 1 is picked up by the (held) worker: the queue is empty again.
	if code, raw := submit(); code != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", code, raw)
	}
	<-running
	// Job 2 occupies the single queue slot.
	if code, raw := submit(); code != http.StatusAccepted {
		t.Fatalf("second submit: %d %s", code, raw)
	}
	// Job 3 must bounce with backpressure.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/elections",
		strings.NewReader(`{"seed":1,"points":[{"graph":"k8","trials":1}]}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if v := promValue(t, ts.URL, "electd_jobs_rejected_total"); v != 1 {
		t.Fatalf("rejected counter = %v", v)
	}
	if v := promValue(t, ts.URL, "electd_queue_depth"); v != 1 {
		t.Fatalf("queue depth = %v", v)
	}
	// The deferred close releases the worker before the cleanup drain, so
	// both accepted jobs finish and the drain returns.
	_ = s
}

// TestValidationErrors exercises the 4xx surface.
func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Graphs: map[string]GraphSpec{"k8": {Family: "clique", N: 8}},
	})
	cases := []struct {
		body string
		want int
	}{
		{`{"seed":1,"points":[]}`, http.StatusBadRequest},
		{`{"seed":1,"points":[{"graph":"nope","trials":1}]}`, http.StatusBadRequest},
		{`{"seed":1,"points":[{"graph":"k8","trials":0}]}`, http.StatusBadRequest},
		{`{"seed":1,"points":[{"graph":"k8","trials":1,"fault":{"drop":1.5}}]}`, http.StatusBadRequest},
		{`{"seed":1,"bogus_field":true}`, http.StatusBadRequest},
		// The retired retransmission knob is an unknown field now.
		{`{"seed":1,"points":[{"graph":"k8","trials":1,"resend":2}]}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/elections", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("submit %q = %d, want %d", c.body, resp.StatusCode, c.want)
		}
	}
	// Unknown job and graph are 404s.
	for _, url := range []string{"/v1/elections/job-999999", "/v1/graphs/none"} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", url, resp.StatusCode)
		}
	}
	// Conflicting graph registration is a 409.
	code, _ := doJSON(t, "POST", ts.URL+"/v1/graphs",
		RegisterRequest{Name: "k8", Spec: GraphSpec{Family: "clique", N: 9}}, nil)
	if code != http.StatusConflict {
		t.Errorf("conflicting register = %d, want 409", code)
	}
}

// TestGracefulDrain: draining flips healthz to 503, rejects new
// submissions with 503, and finishes in-flight work.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Graphs: map[string]GraphSpec{"k8": {Family: "clique", N: 8}},
	})
	var sub SubmitResponse
	code, raw := doJSON(t, "POST", ts.URL+"/v1/elections",
		SubmitRequest{Seed: 3, Points: []PointSpec{{Graph: "k8", Trials: 2}}}, &sub)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, raw)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The in-flight job finished during the drain.
	st := waitForJob(t, ts.URL, sub.ID)
	if st.State != StateDone {
		t.Fatalf("in-flight job not finished by drain: %+v", st)
	}
	// New work is refused, and health reflects the drain.
	code, _ = doJSON(t, "POST", ts.URL+"/v1/elections",
		SubmitRequest{Seed: 3, Points: []PointSpec{{Graph: "k8", Trials: 1}}}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit = %d, want 503", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz = %d, want 503", resp.StatusCode)
	}
	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestJobRetention: finished jobs beyond the retention cap are evicted
// oldest-first (404), so a long-running daemon's job map stays bounded.
func TestJobRetention(t *testing.T) {
	_, ts := newTestServer(t, Options{
		RetainJobs: 2,
		Graphs:     map[string]GraphSpec{"k8": {Family: "clique", N: 8}},
	})
	ids := make([]string, 4)
	for i := range ids {
		var sub SubmitResponse
		code, raw := doJSON(t, "POST", ts.URL+"/v1/elections",
			SubmitRequest{Seed: int64(i), Points: []PointSpec{{Graph: "k8", Trials: 1}}}, &sub)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, code, raw)
		}
		ids[i] = sub.ID
		if st := waitForJob(t, ts.URL, sub.ID); st.State != StateDone {
			t.Fatalf("job %d failed: %+v", i, st)
		}
	}
	// The two oldest are evicted, the two newest still queryable.
	for i, id := range ids {
		resp, err := http.Get(ts.URL + "/v1/elections/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusOK
		if i < 2 {
			want = http.StatusNotFound
		}
		if resp.StatusCode != want {
			t.Errorf("job %d (%s) status = %d, want %d", i, id, resp.StatusCode, want)
		}
	}
}
