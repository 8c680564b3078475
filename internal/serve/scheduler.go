package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"wcle/internal/algo"
	"wcle/internal/engine"
	"wcle/internal/obs"
	"wcle/internal/sim"
	"wcle/internal/stats"
)

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Sentinel errors mapped to HTTP statuses by the handlers.
var (
	// ErrQueueFull is backpressure: the bounded queue is at capacity (429).
	ErrQueueFull = errors.New("serve: job queue is full")
	// ErrDraining means the scheduler no longer accepts work (503).
	ErrDraining = errors.New("serve: scheduler is draining")
)

// ClusterElector dispatches one election to a wire-level cluster instead
// of the in-process engine. internal/cluster's Client implements it;
// electd's -cluster flag plugs it in. The determinism contract is the
// same either way: identical (graph spec, algorithm, seed, fault) means
// an identical outcome, so a job's result does not depend on where it
// ran — fault planes included, since every FaultSpec plane is
// shard-safe.
type ClusterElector interface {
	// RunElection also reports the election's wire traffic, which the
	// metrics layer accumulates into the electd_cluster_* counters.
	RunElection(spec GraphSpec, algorithm string, seed int64, assumedN int, fault FaultSpec) (*algo.Outcome, ClusterWire, error)
}

// ClusterWire is one cluster election's wire-traffic accounting, as
// reported by the ClusterElector (mirrors cluster.WireStats, which serve
// cannot import — cluster imports serve).
type ClusterWire struct {
	// Frames and Bytes count every frame the cluster sent for the
	// election, headers included.
	Frames int64
	Bytes  int64
	// Envelopes counts cross-shard protocol messages.
	Envelopes int64
	// Barriers counts round-barrier iterations.
	Barriers int64
	// CompressedFrames counts data frames sent flate-compressed;
	// RawBytes/CompressedBytes are their payloads before and after.
	CompressedFrames int64
	RawBytes         int64
	CompressedBytes  int64
}

// Job is one submitted election batch moving through the scheduler.
type Job struct {
	ID  string
	Req SubmitRequest

	mu        sync.Mutex
	state     string
	result    *JobResult
	err       string
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// Status snapshots the job for the wire.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.ID, State: j.state, Result: j.result, Error: j.err}
	if j.state == StateDone || j.state == StateFailed {
		t := &JobTiming{
			QueuedMs: float64(j.started.Sub(j.submitted)) / float64(time.Millisecond),
			RunMs:    float64(j.finished.Sub(j.started)) / float64(time.Millisecond),
		}
		if s := j.finished.Sub(j.started).Seconds(); s > 0 && j.result != nil {
			var trials int
			for _, p := range j.result.Points {
				trials += p.Trials
			}
			t.ElectionsPerSec = float64(trials) / s
		}
		st.Timing = t
	}
	return st
}

// State returns the job's current state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Scheduler runs submitted jobs on a fixed worker pool behind a bounded
// queue. Submissions beyond the queue capacity are rejected immediately
// (backpressure) rather than buffered without bound; each accepted job's
// elections run through the algo backend registry (per-point "algorithm"
// field) and are sharded across engine.RunMany's MultiRunner pool with seeds
// derived from the job's master seed via the experiments contract, so a
// job's result is a deterministic function of (registry, request).
type Scheduler struct {
	reg *Registry
	met *Metrics

	// ElectionWorkers is the per-job MultiRunner shard count
	// (0 = runtime.NumCPU()).
	electionWorkers int

	// cluster, when non-nil, dispatches every election to a wire-level
	// cluster instead of running in process.
	cluster ClusterElector

	// tracer observes every in-process election (nil = disabled). It is
	// strictly observational, so traced results stay byte-identical.
	tracer *obs.Tracer

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // finished job ids, oldest first, for bounded retention
	retain   int
	queue    chan *Job
	closed   bool
	seq      int64

	running atomic.Int64
	wg      sync.WaitGroup

	testBeforeRun func(*Job)
}

// SchedulerOptions parameterizes NewScheduler.
type SchedulerOptions struct {
	// Workers is the number of concurrent jobs (0 = 1: jobs already
	// parallelize internally across the MultiRunner pool).
	Workers int
	// QueueCap bounds the number of queued-but-not-running jobs
	// (0 = 16). Submissions beyond it get ErrQueueFull.
	QueueCap int
	// ElectionWorkers is the per-job shard count (0 = runtime.NumCPU()).
	ElectionWorkers int
	// RetainJobs bounds how many finished jobs stay queryable (0 = 1024).
	// Older finished jobs are evicted oldest-first and their status
	// endpoint returns 404 — without a bound a long-running daemon's job
	// map would grow until OOM.
	RetainJobs int
	// Cluster, when non-nil, dispatches every election to a wire-level
	// cluster. Fault planes ride along: every FaultSpec plane is
	// shard-safe, so faulty cluster runs stay seed-deterministic.
	Cluster ClusterElector
	// Tracer, when non-nil, observes every in-process election.
	Tracer *obs.Tracer
	// testBeforeRun, when non-nil, runs on the worker goroutine before a
	// job executes; tests use it to hold workers busy deterministically.
	// Construction-time only, so workers never race a later mutation.
	testBeforeRun func(*Job)
}

// NewScheduler starts the worker pool.
func NewScheduler(reg *Registry, met *Metrics, opts SchedulerOptions) *Scheduler {
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	queueCap := opts.QueueCap
	if queueCap <= 0 {
		queueCap = 16
	}
	retain := opts.RetainJobs
	if retain <= 0 {
		retain = 1024
	}
	s := &Scheduler{
		reg:             reg,
		met:             met,
		electionWorkers: opts.ElectionWorkers,
		cluster:         opts.Cluster,
		tracer:          opts.Tracer,
		jobs:            make(map[string]*Job),
		retain:          retain,
		queue:           make(chan *Job, queueCap),
		testBeforeRun:   opts.testBeforeRun,
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.queue {
				s.run(job)
			}
		}()
	}
	return s
}

// Submit validates, enqueues, and returns the new job. ErrQueueFull is
// the backpressure signal; ErrDraining means shutdown has begun.
func (s *Scheduler) Submit(req SubmitRequest) (*Job, error) {
	if err := req.Validate(s.reg); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrDraining
	}
	s.seq++
	job := &Job{
		ID:        fmt.Sprintf("job-%06d", s.seq),
		Req:       req,
		state:     StateQueued,
		submitted: time.Now(),
	}
	select {
	case s.queue <- job:
	default:
		s.seq-- // the id was never exposed
		s.met.JobsRejected.Add(1)
		return nil, ErrQueueFull
	}
	s.jobs[job.ID] = job
	s.met.JobsSubmitted.Add(1)
	return job, nil
}

// Get returns a submitted job by id.
func (s *Scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// QueueDepth returns (queued, capacity, running).
func (s *Scheduler) QueueDepth() (depth, capacity, running int) {
	return len(s.queue), cap(s.queue), int(s.running.Load())
}

// Draining reports whether Drain has begun.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Drain stops accepting submissions and waits for the queue to empty and
// in-flight jobs to finish, or for ctx to expire (whichever first). It is
// idempotent.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with jobs still running: %w", ctx.Err())
	}
}

// run executes one job on the calling worker goroutine.
func (s *Scheduler) run(job *Job) {
	if s.testBeforeRun != nil {
		s.testBeforeRun(job)
	}
	s.running.Add(1)
	defer s.running.Add(-1)
	job.mu.Lock()
	job.state = StateRunning
	job.started = time.Now()
	job.mu.Unlock()

	result, err := s.runPointsSafe(job.Req)

	job.mu.Lock()
	job.finished = time.Now()
	if err != nil {
		job.state = StateFailed
		job.err = err.Error()
		s.met.JobsFailed.Add(1)
	} else {
		job.state = StateDone
		job.result = result
		s.met.JobsDone.Add(1)
	}
	latency := job.finished.Sub(job.started)
	job.mu.Unlock()
	s.met.ObserveJobLatency(latency)
	s.retire(job.ID)
}

// retire records a finished job for bounded retention, evicting the
// oldest finished jobs beyond the cap so the daemon's job map stays O(1)
// memory however long it runs. Queued and running jobs are never evicted.
func (s *Scheduler) retire(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, id)
	for len(s.finished) > s.retain {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// runPointsSafe confines a panic anywhere in a job's execution (engine,
// generator, profile) to that job: the daemon must fail the job and keep
// serving, not crash with every queued job lost.
func (s *Scheduler) runPointsSafe(req SubmitRequest) (res *JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("serve: job panicked: %v", r)
		}
	}()
	return s.runPoints(req)
}

// runPoints executes every point of the request in order. Points are
// sequential — each point already saturates the MultiRunner pool — and
// their seeds derive from (request seed, point index, point spec), never
// from scheduler state, so a replay is byte-identical.
func (s *Scheduler) runPoints(req SubmitRequest) (*JobResult, error) {
	out := &JobResult{Seed: req.Seed, Points: make([]PointResult, 0, len(req.Points))}
	for i, p := range req.Points {
		reg, ok := s.reg.Get(p.Graph)
		if !ok {
			// Validated at submission; the registry never unregisters, so
			// this is unreachable unless the request mutated.
			return nil, fmt.Errorf("serve: point %d: unknown graph %q", i, p.Graph)
		}
		baseSeed := sim.SeedForKey(req.Seed, fmt.Sprintf("electd|%d|%s", i, p.Key()))
		algName := algo.Resolve(p.Algorithm)
		pt0 := time.Now()
		if s.cluster != nil {
			pr, err := s.runPointCluster(i, p, algName, baseSeed, reg)
			if err != nil {
				return nil, err
			}
			s.met.ObserveAlgoLatency(algName, time.Since(pt0))
			s.attachProfile(&pr, p.Graph)
			out.Points = append(out.Points, pr)
			continue
		}
		backend, err := algo.New(algName, engine.Config{AssumedN: p.AssumedN})
		if err != nil {
			// Validated at submission; the registry never unregisters.
			return nil, fmt.Errorf("serve: point %d: %w", i, err)
		}
		opts := engine.BatchOptions{
			Base:          engine.Options{Seed: baseSeed, LeanMetrics: true, Tracer: s.tracer},
			Trials:        p.Trials,
			Workers:       s.electionWorkers,
			CollectTrials: true,
		}
		if !p.Fault.IsZero() {
			fault := p.Fault
			opts.NewFault = func(int) sim.FaultPlane { return fault.Plane() }
		}
		batch, err := algo.RunMany(backend, reg.Graph, opts)
		if err != nil {
			return nil, fmt.Errorf("serve: point %d (%s, %s): %w", i, p.Graph, algName, err)
		}
		s.met.ElectionsServed.Add(int64(p.Trials))
		s.met.AddAlgoElections(algName, int64(p.Trials))
		s.met.ObserveAlgoLatency(algName, time.Since(pt0))
		pr := PointResult{
			Graph:        p.Graph,
			Algorithm:    algName,
			Trials:       p.Trials,
			Seed:         baseSeed,
			One:          batch.One,
			Zero:         batch.Zero,
			Multi:        batch.Multi,
			UniqueLeader: batch.One == batch.Trials,
			Messages:     batch.Messages,
			Bits:         batch.Bits,
			Rounds:       batch.Rounds,
			FaultDrops:   batch.FaultDrops,
			Contenders:   batch.Contenders,
			Summaries:    trialSummaries(batch.TrialRounds, batch.TrialMessages, batch.TrialContenders),
		}
		s.attachProfile(&pr, p.Graph)
		out.Points = append(out.Points, pr)
	}
	return out, nil
}

// attachProfile adds the registry's cached spectral profile to a point
// result (or the cached error).
func (s *Scheduler) attachProfile(pr *PointResult, graph string) {
	if prof, err := s.reg.Profile(graph); err != nil {
		pr.SpectralError = err.Error()
	} else {
		pr.Spectral = prof
	}
}

// runPointCluster executes one point's trials on the wire-level cluster,
// one election per trial, with the exact per-trial seeds the in-process
// path derives — so a job's result is identical wherever it ran.
func (s *Scheduler) runPointCluster(i int, p PointSpec, algName string, baseSeed int64, reg *Registered) (PointResult, error) {
	pr := PointResult{
		Graph:     p.Graph,
		Algorithm: algName,
		Trials:    p.Trials,
		Seed:      baseSeed,
	}
	rounds := make([]int32, p.Trials)
	msgs := make([]int64, p.Trials)
	contenders := make([]int32, p.Trials)
	for t := 0; t < p.Trials; t++ {
		out, cw, err := s.cluster.RunElection(reg.Spec, algName, sim.DeriveSeed(baseSeed, uint64(t)), p.AssumedN, p.Fault)
		if err != nil {
			return pr, fmt.Errorf("serve: point %d trial %d on the cluster: %w", i, t, err)
		}
		s.met.AddClusterWire(cw)
		switch len(out.Leaders) {
		case 0:
			pr.Zero++
		case 1:
			pr.One++
		default:
			pr.Multi++
		}
		pr.Messages += out.Metrics.Messages
		pr.Bits += out.Metrics.Bits
		pr.Rounds += int64(out.Rounds)
		pr.FaultDrops += out.Metrics.FaultDrops
		pr.Contenders += out.Contenders
		rounds[t] = int32(out.Rounds)
		msgs[t] = out.Metrics.Messages
		contenders[t] = int32(out.Contenders)
	}
	pr.UniqueLeader = pr.One == pr.Trials
	pr.Summaries = trialSummaries(rounds, msgs, contenders)
	s.met.ElectionsServed.Add(int64(p.Trials))
	s.met.AddAlgoElections(algName, int64(p.Trials))
	return pr, nil
}

// trialSummaries aggregates the per-trial vectors of a collected batch.
func trialSummaries(rounds []int32, msgs []int64, contenders []int32) map[string]AggWire {
	series := map[string][]float64{
		"rounds":     int32Floats(rounds),
		"messages":   int64Floats(msgs),
		"contenders": int32Floats(contenders),
	}
	out := make(map[string]AggWire, len(series))
	for name, xs := range series {
		a, err := stats.Aggregate(xs)
		if err != nil {
			continue
		}
		out[name] = aggWire(roundAgg(a))
	}
	return out
}

func int32Floats(xs []int32) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func int64Floats(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// roundAgg normalizes an aggregate for the wire: float64 arithmetic on
// integral samples is deterministic, but rounding to 9 decimal places
// keeps the JSON stable against any future reordering of the summation
// while staying far below a measurement's meaningful precision.
func roundAgg(a stats.Agg) stats.Agg {
	r := func(x float64) float64 { return math.Round(x*1e9) / 1e9 }
	a.Mean, a.Std, a.Median = r(a.Mean), r(a.Std), r(a.Median)
	a.Min, a.Max, a.CILo, a.CIHi = r(a.Min), r(a.Max), r(a.CILo), r(a.CIHi)
	return a
}
