// Package serve is the election service layer behind cmd/electd: a
// long-running HTTP/JSON daemon that serves batch leader elections on top
// of the algo backend registry and its sharded batch engine
// (algo.RunMany), so one daemon compares every registered protocol —
// gilbertrs18, floodmax, kpprt — under identical seeds and graphs.
//
// It has three parts:
//
//   - Registry: named graph specs (a generator family with parameters, or
//     an explicit edge list) instantiated once, with a memoized spectral
//     profile per graph (tmix, lambda_2, Cheeger conductance bounds)
//     computed behind a singleflight so concurrent first requests pay for
//     one computation. The algorithm's cost is graph-dependent —
//     O(tmix log^2 n) rounds — so the profile is the expensive,
//     amortizable part, and it is surfaced in responses so callers can
//     predict a run's cost before paying for it.
//
//   - Scheduler: bounded-queue batch submission. POST /v1/elections
//     enqueues a job of points (graph x trials x algorithm x fault
//     plane); each point runs as one algo.RunMany batch of its chosen
//     backend across the MultiRunner worker pool with seeds derived from
//     the job's master seed via the sim.SeedForKey contract, so a job's
//     "result" object is a deterministic, byte-identical function of
//     (registered graphs, request). A full queue rejects with 429
//     (backpressure); wall-clock observations are fenced into a separate
//     "timing" object.
//
//   - Ops surface: GET /healthz, GET /metrics (Prometheus text:
//     elections served, queue depth, spectral cache hit rate, p50/p99 job
//     latency), and graceful drain — on SIGTERM the daemon stops
//     accepting, finishes in-flight jobs, then exits.
package serve
