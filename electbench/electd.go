package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"wcle"
	"wcle/internal/obs"
	"wcle/internal/serve"
	"wcle/internal/sim"
)

const (
	// electdGraph names electd-faulty's pre-registered graph.
	electdGraph = "rr8-512"
	electdN     = 512
	// electdSetups is how many set-ups electd-faulty times on each side of
	// its measured phase (one takes about 45 ms).
	electdSetups = 20
	// pollEvery is the client's wait between status GETs, as in
	// examples/electd_client.
	pollEvery = 50 * time.Millisecond
)

// jobRequest is electd-faulty's job: floodmax under drops and delays, and
// kpprt under delays (it elects no leader at all under drops), two trials
// each.
func jobRequest(seed int64) serve.SubmitRequest {
	return serve.SubmitRequest{Seed: seed, Points: []serve.PointSpec{
		{Graph: electdGraph, Trials: 2, Algorithm: "floodmax", Fault: serve.FaultSpec{Drop: 0.05, DelayMax: 2}},
		{Graph: electdGraph, Trials: 2, Algorithm: "kpprt", Fault: serve.FaultSpec{DelayMax: 2}},
	}}
}

// pointSeed is the base seed electd derives for point k of a request.
func pointSeed(req serve.SubmitRequest, k int) int64 {
	return sim.SeedForKey(req.Seed, fmt.Sprintf("electd|%d|%s", k, req.Points[k].Key()))
}

// electd is one server under test, behind httptest on loopback.
type electd struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

// startElectd builds the server with the workload graph pre-registered and
// starts its listener (default options: one scheduler worker, nproc
// election workers). sink, when non-nil, receives every trace event.
func startElectd(spec wcle.GraphSpec, sink obs.Sink) (*electd, error) {
	srv, err := serve.NewServer(serve.Options{Graphs: map[string]serve.GraphSpec{electdGraph: spec}, TraceSink: sink})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &electd{srv: srv, ts: ts, client: ts.Client()}, nil
}

func (e *electd) close() error {
	e.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return e.srv.Drain(ctx)
}

// do sends one request and decodes a 2xx JSON answer into out; it returns
// the raw body too.
func (e *electd) do(method, path string, body []byte, out interface{}) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.ts.URL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return raw, nil
}

// getGraph is the first GET of the workload graph; it computes the
// registry's spectral profile.
func (e *electd) getGraph() error {
	var info serve.GraphInfo
	if _, err := e.do("GET", "/v1/graphs/"+electdGraph, nil, &info); err != nil {
		return err
	}
	if info.N != electdN || info.Spectral == nil {
		return fmt.Errorf("graph %s: n=%d, spectral profile present: %v", electdGraph, info.N, info.Spectral != nil)
	}
	return nil
}

// jobStatus is GET /v1/elections/{id} with the result kept raw, so that a
// replay can be compared byte for byte.
type jobStatus struct {
	State  string           `json:"state"`
	Result json.RawMessage  `json:"result"`
	Timing *serve.JobTiming `json:"timing"`
	Error  string           `json:"error"`
}

// jobRun is one job as the client saw it.
type jobRun struct {
	lat, submit time.Duration
	polls       int
	timing      serve.JobTiming
	result      serve.JobResult
	raw         json.RawMessage
}

// job submits req and polls until the job is done: one electd-faulty
// operation. Its latency runs from the POST until the client sees "done".
func (b *bench) job(e *electd, req serve.SubmitRequest, name string) (*jobRun, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	jr := &jobRun{}
	start := time.Now()
	var sub serve.SubmitResponse
	_, err = e.do("POST", "/v1/elections", body, &sub)
	jr.submit = b.span("POST /v1/elections", start, nil)
	if err != nil {
		return nil, err
	}
	for {
		var st jobStatus
		pollStart := time.Now()
		_, err := e.do("GET", sub.Location, nil, &st)
		b.span("GET /v1/elections/{id}", pollStart, nil)
		jr.polls++
		if err != nil {
			return nil, err
		}
		switch st.State {
		case serve.StateDone:
			jr.lat = b.span(name, start, map[string]int64{"polls": int64(jr.polls)})
			if st.Timing == nil {
				return nil, fmt.Errorf("job %s: done without timing", sub.ID)
			}
			jr.timing, jr.raw = *st.Timing, st.Result
			if err := json.Unmarshal(st.Result, &jr.result); err != nil {
				return nil, fmt.Errorf("job %s result: %w", sub.ID, err)
			}
			return jr, checkJob(req, jr.result)
		case serve.StateFailed:
			return nil, fmt.Errorf("job %s failed: %s", sub.ID, st.Error)
		}
		time.Sleep(pollEvery)
	}
}

// checkJob checks a finished job against its request: every point ran its
// trials at the seed electd's contract derives, and its leader tallies add
// up.
func checkJob(req serve.SubmitRequest, res serve.JobResult) error {
	if res.Seed != req.Seed || len(res.Points) != len(req.Points) {
		return fmt.Errorf("result has seed %d and %d points, want %d and %d", res.Seed, len(res.Points), req.Seed, len(req.Points))
	}
	for k, p := range res.Points {
		want := req.Points[k]
		switch {
		case p.Algorithm != want.Algorithm || p.Trials != want.Trials:
			return fmt.Errorf("point %d ran %s x%d, want %s x%d", k, p.Algorithm, p.Trials, want.Algorithm, want.Trials)
		case p.Seed != pointSeed(req, k):
			return fmt.Errorf("point %d ran at seed %d, want %d", k, p.Seed, pointSeed(req, k))
		case p.One+p.Zero+p.Multi != p.Trials || p.UniqueLeader != (p.One == p.Trials):
			return fmt.Errorf("point %d tallies one=%d zero=%d multi=%d unique=%v over %d trials", k, p.One, p.Zero, p.Multi, p.UniqueLeader, p.Trials)
		case p.Messages <= 0 || p.Rounds <= 0 || p.Spectral == nil:
			return fmt.Errorf("point %d: %d messages, %d rounds, spectral profile present: %v", k, p.Messages, p.Rounds, p.Spectral != nil)
		}
	}
	return nil
}

// jobOp runs one job as a checked operation.
func (b *bench) jobOp(e *electd, req serve.SubmitRequest, name string) (opResult, *jobRun) {
	jr, err := b.job(e, req, name)
	if jr == nil {
		return opResult{err: err}, nil
	}
	r := opResult{lat: jr.lat, err: err}
	for _, p := range jr.result.Points {
		r.elections += p.Trials
		r.unique += p.One
		r.msgs += p.Messages
		r.rounds += p.Rounds
	}
	return r, jr
}

// batch runs point k of req directly through wcle.RunMany, at the seeds
// electd derives and with its worker count (nproc).
func (b *bench) batch(g *wcle.Graph, req serve.SubmitRequest, k int, tr *obs.Tracer) (*wcle.ProtocolBatchResult, time.Duration, error) {
	p := req.Points[k]
	fault := p.Fault
	start := time.Now()
	res, err := wcle.RunMany(p.Algorithm, g, wcle.ProtocolConfig{}, wcle.ProtocolBatchOptions{
		Base:     wcle.ProtocolOptions{Seed: pointSeed(req, k), LeanMetrics: true, Tracer: tr},
		Trials:   p.Trials,
		NewFault: func(int) wcle.FaultPlane { return fault.Plane() },
	})
	d := b.span("wcle.RunMany", start, map[string]int64{"point": int64(k), "traced": boolInt(tr != nil)})
	return res, d, err
}

// checkBatch compares a direct batch with the job's point: the same
// message, round and fault-drop totals, and every accepted send delivered
// or lost.
func checkBatch(res *wcle.ProtocolBatchResult, p serve.PointResult) error {
	var deliveries int64
	for _, s := range res.Shards {
		deliveries += s.Deliveries
	}
	switch {
	case res.Messages != p.Messages || res.Rounds != p.Rounds || res.FaultDrops != p.FaultDrops:
		return fmt.Errorf("%s: wcle.RunMany gave messages %d, rounds %d, fault drops %d; the job %d, %d, %d",
			p.Algorithm, res.Messages, res.Rounds, res.FaultDrops, p.Messages, p.Rounds, p.FaultDrops)
	case res.Messages != deliveries+res.FaultDrops:
		return fmt.Errorf("%s: messages %d != deliveries %d + fault drops %d", p.Algorithm, res.Messages, deliveries, res.FaultDrops)
	}
	return nil
}

// directJob runs a whole job's points through wcle.RunMany and checks them
// against the job's result. sinks, when non-nil, trace point k into
// sinks[k].
func (b *bench) directJob(g *wcle.Graph, req serve.SubmitRequest, jr *jobRun, sinks []*aggSink) ([]*wcle.ProtocolBatchResult, time.Duration, error) {
	var total time.Duration
	out := make([]*wcle.ProtocolBatchResult, len(req.Points))
	for k := range req.Points {
		var tr *obs.Tracer
		if sinks != nil {
			tr = obs.New(sinks[k], 0)
		}
		res, d, err := b.batch(g, req, k, tr)
		if err != nil {
			return nil, 0, err
		}
		total += d
		if jr != nil {
			if err := checkBatch(res, jr.result.Points[k]); err != nil {
				return nil, 0, err
			}
		}
		out[k] = res
	}
	return out, total, nil
}

func electdUntraced(b *bench) error {
	spec := rrSpec(b.cfg.seed, electdN)
	ref := hostRef()
	setup := func(i int) (func(), error) {
		e, err := startElectd(setupSpec(b.cfg.seed, electdN, i), nil)
		if err != nil {
			return nil, err
		}
		if err := e.getGraph(); err != nil {
			_ = e.close()
			return nil, err
		}
		return func() { _ = e.close() }, nil
	}
	if err := b.timeSetups(electdSetups, setup); err != nil {
		return err
	}
	e, err := startElectd(spec, nil)
	if err != nil {
		return err
	}
	defer e.close()
	if err := e.getGraph(); err != nil {
		return err
	}
	for i := 0; i < b.cfg.warmups(); i++ {
		if _, err := b.job(e, jobRequest(warmupSeed(b.cfg.seed, i)), "job"); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	var first *jobRun
	st := closedLoop(1, b.cfg.ops(), b.cfg.seconds, func(i int) opResult {
		r, jr := b.jobOp(e, jobRequest(opSeed(b.cfg.seed, i)), "job")
		if i == 0 {
			first = jr
		}
		return r
	})
	if err := b.timeSetups(electdSetups, setup); err != nil {
		return err
	}
	b.endToEnd(st)
	if first != nil {
		// A replay of the first request must give a byte-identical result,
		// and wcle.RunMany at electd's seeds the same totals.
		req := jobRequest(opSeed(b.cfg.seed, 0))
		jr, err := b.job(e, req, "job replay")
		if err == nil && !bytes.Equal(jr.raw, first.raw) {
			err = fmt.Errorf("replayed job's result differs from the first run's")
		}
		b.count(err)
		g, err := spec.Build()
		if err != nil {
			return err
		}
		_, _, err = b.directJob(g, req, first, nil)
		b.count(err)
	}
	b.set("peak_rss_mb", peakRSSMB())
	b.hostRefAfter(ref)
	return e.close()
}

func electdTraced(b *bench) error {
	spec := rrSpec(b.cfg.seed, electdN)
	ref := hostRef()
	pg, err := b.graphLayers(spec, 3)
	if err != nil {
		return err
	}
	g := pg.g
	sink := newAggSink()
	et, err := startElectd(spec, sink)
	if err != nil {
		return err
	}
	defer et.close()
	eu, err := startElectd(spec, nil)
	if err != nil {
		return err
	}
	defer eu.close()
	for _, e := range []*electd{et, eu} {
		if err := e.getGraph(); err != nil {
			return err
		}
	}
	for i := 0; i < b.cfg.warmups(); i++ {
		req := jobRequest(warmupSeed(b.cfg.seed, i))
		for _, e := range []*electd{et, eu} {
			if _, err := b.job(e, req, "job"); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		if _, _, err := b.directJob(g, req, nil, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	sink.take()

	var tracedLat, plainLat, submit, queue, runMs, lag, batchMs, overhead, imbalance []float64
	var polls, elections, fixedElections int
	var baseline, kpprt, flush, deliver, hostNs float64
	var baseRuns, kpRuns int
	var msgs, events, busy, rounds, deliveries, drops, delayed int64
	minIters := b.tracedIters()
	gc0 := readGC()
	start := time.Now()
	for i := 0; !stopLoop(start, b.cfg.seconds, i, minIters); i++ {
		req := jobRequest(opSeed(b.cfg.seed, i))
		var traced, plain *jobRun
		var direct []*wcle.ProtocolBatchResult
		var directMs float64
		pointSinks := []*aggSink{newAggSink(), newAggSink()}
		var tracedDirect []*wcle.ProtocolBatchResult
		for k := 0; k < 4; k++ {
			// Rotate which of the four runs first.
			switch (i + k) % 4 {
			case 0:
				r, jr := b.jobOp(et, req, "job traced")
				b.count(r.err)
				traced = jr
			case 1:
				r, jr := b.jobOp(eu, req, "job")
				b.count(r.err)
				plain = jr
			case 2:
				res, d, err := b.directJob(g, req, nil, nil)
				b.count(err)
				direct, directMs = res, msOf(d)
			case 3:
				res, _, err := b.directJob(g, req, nil, pointSinks)
				b.count(err)
				tracedDirect = res
			}
		}
		it := sink.take()
		if traced == nil || plain == nil || direct == nil || tracedDirect == nil {
			continue
		}
		// wcle.RunMany at electd's seeds gives the job's totals, traced or
		// not, and tracing the server changes no byte of the result.
		for _, batch := range [][]*wcle.ProtocolBatchResult{direct, tracedDirect} {
			for k, res := range batch {
				b.count(checkBatch(res, plain.result.Points[k]))
			}
		}
		var err error
		if !bytes.Equal(traced.raw, plain.raw) {
			err = fmt.Errorf("job seed %d: the traced server's result differs from the untraced one's", req.Seed)
		}
		b.count(err)
		jobElections := 0
		for _, p := range plain.result.Points {
			jobElections += p.Trials
		}
		elections += 4 * jobElections
		tracedLat = append(tracedLat, msOf(traced.lat))
		plainLat = append(plainLat, msOf(plain.lat))
		submit = append(submit, msOf(plain.submit))
		queue = append(queue, plain.timing.QueuedMs)
		runMs = append(runMs, plain.timing.RunMs)
		lag = append(lag, msOf(plain.lat-plain.submit)-plain.timing.QueuedMs-plain.timing.RunMs)
		polls += plain.polls
		batchMs = append(batchMs, directMs)
		overhead = append(overhead, ratio(plain.timing.RunMs, directMs))
		for k, res := range direct {
			var maxEl, sumEl time.Duration
			for _, s := range res.Shards {
				maxEl = max(maxEl, s.Elapsed)
				sumEl += s.Elapsed
				hostNs += float64(s.Elapsed)
			}
			if len(res.Shards) > 0 {
				imbalance = append(imbalance, ratio(float64(maxEl), float64(sumEl)/float64(len(res.Shards))))
			}
			msgs += res.Messages
			tres := tracedDirect[k]
			spans := pointSinks[k].take()
			compute := spans.ms("sim", "compute")
			if req.Points[k].Algorithm == "kpprt" {
				kpprt += compute
				kpRuns += tres.Trials
			} else {
				baseline += compute
				baseRuns += tres.Trials
			}
			f := spans.ms("sim", "flush")
			flush += f
			var elapsed time.Duration
			for _, s := range tres.Shards {
				elapsed += s.Elapsed
			}
			deliver += msOf(elapsed) - compute - f
			if i < minIters {
				for _, s := range res.Shards {
					busy += s.BusyRounds
					deliveries += s.Deliveries
				}
				rounds += res.Rounds
				drops += res.FaultDrops
				delayed += res.Delayed
			}
		}
		if i < minIters {
			events += it.events()
			fixedElections += jobElections
		}
	}
	b.runtimeMetrics(gc0, elections)
	hits, misses, _ := eu.srv.Registry.CacheStats()
	b.set("spectral.cache_hit_frac", ratio(float64(hits), float64(hits+misses)))
	n := float64(len(plainLat))
	b.set("serve.submit_ms", median(submit))
	b.set("serve.queue_ms", median(queue))
	b.set("serve.run_ms", median(runMs))
	b.set("serve.observe_lag_ms", median(lag))
	b.set("serve.polls_per_job", ratio(float64(polls), n))
	b.set("serve.overhead_x", median(overhead))
	b.set("engine.batch_ms_per_job", median(batchMs))
	b.set("engine.shard_imbalance", median(imbalance))
	b.set("algo.step_ms_per_election", ratio(kpprt, float64(kpRuns)))
	b.set("baseline.step_ms_per_election", ratio(baseline, float64(baseRuns)))
	b.set("core.step_ms_per_election", 0)
	b.set("sim.flush_ms_per_election", ratio(flush, float64(kpRuns+baseRuns)))
	b.set("sim.deliver_ms_per_election", ratio(deliver, float64(kpRuns+baseRuns)))
	b.set("sim.ns_per_msg", ratio(hostNs, float64(msgs)))
	b.set("sim.busy_round_frac", ratio(float64(busy), float64(rounds)))
	b.set("sim.deliveries_per_election", ratio(float64(deliveries), float64(fixedElections)))
	b.set("sim.fault_drops_per_election", ratio(float64(drops), float64(fixedElections)))
	b.set("sim.delayed_per_election", ratio(float64(delayed), float64(fixedElections)))
	b.set("obs.events_per_election", ratio(float64(events), float64(fixedElections)))
	b.set("obs.trace_overhead_frac", ratio(median(tracedLat), median(plainLat))-1)
	b.zeroLayers(wireClusterLayers...)
	b.logf("traced loop: %d jobs, each on a traced and an untraced server and twice through wcle.RunMany", len(plainLat))
	b.hostRefAfter(ref)
	if err := et.close(); err != nil {
		return err
	}
	return eu.close()
}
