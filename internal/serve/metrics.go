package serve

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wcle/internal/stats"
)

// Metrics is electd's ops surface: monotone counters for traffic and the
// spectral cache, gauges for the queue, and a bounded window of job
// latencies for p50/p99. Rendered as Prometheus-style text at /metrics.
type Metrics struct {
	start time.Time

	// Traffic counters.
	JobsSubmitted atomic.Int64
	JobsRejected  atomic.Int64 // queue-full 429s
	JobsDone      atomic.Int64
	JobsFailed    atomic.Int64
	// ElectionsServed counts completed election trials across all jobs.
	ElectionsServed atomic.Int64

	// Cluster wire-traffic counters, accumulated from every cluster-mode
	// election (zero when electd runs the in-process engine).
	ClusterFrames           atomic.Int64
	ClusterBytes            atomic.Int64
	ClusterEnvelopes        atomic.Int64
	ClusterBarriers         atomic.Int64
	ClusterCompressedFrames atomic.Int64
	ClusterRawBytes         atomic.Int64
	ClusterCompressedBytes  atomic.Int64

	// electionsByAlgo counts completed election trials per backend (the
	// algo registry names). Bounded by the registry size.
	algoMu          sync.Mutex
	electionsByAlgo map[string]int64

	// latencyWindow keeps the most recent job wall-clock latencies
	// (seconds) for quantile estimation; bounded so /metrics stays O(1)
	// memory however long the daemon runs.
	latMu     sync.Mutex
	latencies []float64
	latNext   int

	// algoHist holds one latency histogram per backend/protocol (point
	// execution wall time). Bounded by the registry size.
	histMu   sync.Mutex
	algoHist map[string]*latencyHist

	// TraceStats, when set, reports the attached tracer's emitted-event
	// and flight-recorder drop totals at render time (electd wires it up
	// when tracing is enabled; nil renders zeros).
	TraceStats func() (emitted, dropped int64)
}

// latencyBounds are the histogram's upper bounds in seconds (plus an
// implicit +Inf): exponential, 1ms to ~100s, matching election wall times
// from quick sim points to big cluster jobs.
var latencyBounds = [...]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100}

// latencyHist is one Prometheus-style cumulative histogram.
type latencyHist struct {
	counts [len(latencyBounds) + 1]int64 // per-bucket (last = +Inf)
	sum    float64
	total  int64
}

func (h *latencyHist) observe(s float64) {
	i := sort.SearchFloat64s(latencyBounds[:], s)
	h.counts[i]++
	h.sum += s
	h.total++
}

// ObserveAlgoLatency records one point's execution wall time under its
// backend/protocol name.
func (m *Metrics) ObserveAlgoLatency(name string, d time.Duration) {
	m.histMu.Lock()
	defer m.histMu.Unlock()
	if m.algoHist == nil {
		m.algoHist = make(map[string]*latencyHist)
	}
	h := m.algoHist[name]
	if h == nil {
		h = &latencyHist{}
		m.algoHist[name] = h
	}
	h.observe(d.Seconds())
}

// AddClusterWire accumulates one cluster election's wire traffic.
func (m *Metrics) AddClusterWire(w ClusterWire) {
	m.ClusterFrames.Add(w.Frames)
	m.ClusterBytes.Add(w.Bytes)
	m.ClusterEnvelopes.Add(w.Envelopes)
	m.ClusterBarriers.Add(w.Barriers)
	m.ClusterCompressedFrames.Add(w.CompressedFrames)
	m.ClusterRawBytes.Add(w.RawBytes)
	m.ClusterCompressedBytes.Add(w.CompressedBytes)
}

// AddAlgoElections records n completed election trials for one backend.
func (m *Metrics) AddAlgoElections(name string, n int64) {
	m.algoMu.Lock()
	defer m.algoMu.Unlock()
	if m.electionsByAlgo == nil {
		m.electionsByAlgo = make(map[string]int64)
	}
	m.electionsByAlgo[name] += n
}

// algoElections snapshots the per-backend counters in sorted name order.
func (m *Metrics) algoElections() ([]string, []int64) {
	m.algoMu.Lock()
	defer m.algoMu.Unlock()
	names := make([]string, 0, len(m.electionsByAlgo))
	for name := range m.electionsByAlgo {
		names = append(names, name)
	}
	sort.Strings(names)
	counts := make([]int64, len(names))
	for i, name := range names {
		counts[i] = m.electionsByAlgo[name]
	}
	return names, counts
}

// latencyWindowSize bounds the latency sample.
const latencyWindowSize = 512

// NewMetrics returns a metrics sink anchored at now.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now()}
}

// ObserveJobLatency records one finished job's wall-clock run time.
func (m *Metrics) ObserveJobLatency(d time.Duration) {
	m.latMu.Lock()
	defer m.latMu.Unlock()
	s := d.Seconds()
	if len(m.latencies) < latencyWindowSize {
		m.latencies = append(m.latencies, s)
	} else {
		m.latencies[m.latNext] = s
		m.latNext = (m.latNext + 1) % latencyWindowSize
	}
}

// latencyQuantiles returns (p50, p99, n) over the current window.
func (m *Metrics) latencyQuantiles() (p50, p99 float64, n int) {
	m.latMu.Lock()
	window := append([]float64(nil), m.latencies...)
	m.latMu.Unlock()
	if len(window) == 0 {
		return 0, 0, 0
	}
	qs, err := stats.Quantiles(window, 0.5, 0.99)
	if err != nil {
		return 0, 0, 0
	}
	return qs[0], qs[1], len(window)
}

// WriteProm renders the metrics in Prometheus exposition format. reg and
// queueDepth/queueCap are read at render time so the gauges are live.
func (m *Metrics) WriteProm(w io.Writer, reg *Registry, queueDepth, queueCap, running int) {
	p50, p99, n := m.latencyQuantiles()
	hits, misses, computes := int64(0), int64(0), int64(0)
	graphs := 0
	if reg != nil {
		hits, misses, computes = reg.CacheStats()
		graphs = len(reg.Names())
	}
	var hitRate float64
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	fmt.Fprintf(w, "# electd ops metrics\n")
	fmt.Fprintf(w, "electd_uptime_seconds %.3f\n", time.Since(m.start).Seconds())
	fmt.Fprintf(w, "electd_jobs_submitted_total %d\n", m.JobsSubmitted.Load())
	fmt.Fprintf(w, "electd_jobs_rejected_total %d\n", m.JobsRejected.Load())
	fmt.Fprintf(w, "electd_jobs_done_total %d\n", m.JobsDone.Load())
	fmt.Fprintf(w, "electd_jobs_failed_total %d\n", m.JobsFailed.Load())
	fmt.Fprintf(w, "electd_elections_served_total %d\n", m.ElectionsServed.Load())
	names, counts := m.algoElections()
	for i, name := range names {
		fmt.Fprintf(w, "electd_elections_by_algorithm_total{algorithm=%q} %d\n", name, counts[i])
	}
	fmt.Fprintf(w, "electd_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "electd_queue_capacity %d\n", queueCap)
	fmt.Fprintf(w, "electd_jobs_running %d\n", running)
	fmt.Fprintf(w, "electd_graphs_registered %d\n", graphs)
	fmt.Fprintf(w, "electd_spectral_cache_hits_total %d\n", hits)
	fmt.Fprintf(w, "electd_spectral_cache_misses_total %d\n", misses)
	fmt.Fprintf(w, "electd_spectral_computes_total %d\n", computes)
	fmt.Fprintf(w, "electd_spectral_cache_hit_rate %.6f\n", hitRate)
	fmt.Fprintf(w, "electd_job_latency_seconds_p50 %.6f\n", p50)
	fmt.Fprintf(w, "electd_job_latency_seconds_p99 %.6f\n", p99)
	fmt.Fprintf(w, "electd_job_latency_window_size %d\n", n)
	// Cluster-mode wire counters: always emitted (zero off-cluster) so
	// dashboards and smoke checks can assert on their presence.
	fmt.Fprintf(w, "electd_cluster_wire_frames_total %d\n", m.ClusterFrames.Load())
	fmt.Fprintf(w, "electd_cluster_wire_bytes_total %d\n", m.ClusterBytes.Load())
	fmt.Fprintf(w, "electd_cluster_envelopes_total %d\n", m.ClusterEnvelopes.Load())
	fmt.Fprintf(w, "electd_cluster_barriers_total %d\n", m.ClusterBarriers.Load())
	fmt.Fprintf(w, "electd_cluster_compressed_frames_total %d\n", m.ClusterCompressedFrames.Load())
	fmt.Fprintf(w, "electd_cluster_raw_bytes_total %d\n", m.ClusterRawBytes.Load())
	fmt.Fprintf(w, "electd_cluster_compressed_bytes_total %d\n", m.ClusterCompressedBytes.Load())
	// Tracer counters: always emitted (zero without a tracer) so smoke
	// checks can assert on their presence.
	var emitted, dropped int64
	if m.TraceStats != nil {
		emitted, dropped = m.TraceStats()
	}
	fmt.Fprintf(w, "electd_trace_events_total %d\n", emitted)
	fmt.Fprintf(w, "electd_trace_dropped_total %d\n", dropped)
	m.writeHistograms(w)
}

// writeHistograms renders the per-backend point-latency histograms in
// Prometheus exposition format (cumulative buckets, sum, count).
func (m *Metrics) writeHistograms(w io.Writer) {
	m.histMu.Lock()
	names := make([]string, 0, len(m.algoHist))
	for name := range m.algoHist {
		names = append(names, name)
	}
	sort.Strings(names)
	hists := make([]latencyHist, len(names))
	for i, name := range names {
		hists[i] = *m.algoHist[name]
	}
	m.histMu.Unlock()
	for i, name := range names {
		h := &hists[i]
		cum := int64(0)
		for b, bound := range latencyBounds {
			cum += h.counts[b]
			fmt.Fprintf(w, "electd_point_latency_seconds_bucket{algorithm=%q,le=%q} %d\n", name, trimFloat(bound), cum)
		}
		cum += h.counts[len(latencyBounds)]
		fmt.Fprintf(w, "electd_point_latency_seconds_bucket{algorithm=%q,le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "electd_point_latency_seconds_sum{algorithm=%q} %.6f\n", name, h.sum)
		fmt.Fprintf(w, "electd_point_latency_seconds_count{algorithm=%q} %d\n", name, h.total)
	}
}

// trimFloat renders a bucket bound the Prometheus way (no trailing
// zeros: "0.001", "2.5", "100").
func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
