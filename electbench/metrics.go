package main

// endToEndUnits are the metrics an untraced run prints, with their units.
// BENCHMARK.json lists the same names; the benchmark's test holds the two
// together.
var endToEndUnits = map[string]string{
	"elections_per_s":       "1/s",
	"latency_ms_p50":        "ms",
	"latency_ms_p90":        "ms",
	"cpu_ms_per_election":   "ms",
	"unique_leader_frac":    "frac",
	"msgs_per_election":     "count",
	"rounds_per_election":   "count",
	"alloc_mb_per_election": "MB",
	"peak_rss_mb":           "MB",
	"setup_s":               "s",
}

// perLayerUnits are the metrics a traced run prints. A workload that never
// calls into a layer prints that layer's metrics as 0.
var perLayerUnits = map[string]string{
	"host.ref_ms":                    "ms",
	"graph.build_ms":                 "ms",
	"spectral.profile_ms":            "ms",
	"spectral.cache_hit_frac":        "frac",
	"core.step_ms_per_election":      "ms",
	"algo.step_ms_per_election":      "ms",
	"baseline.step_ms_per_election":  "ms",
	"sim.flush_ms_per_election":      "ms",
	"sim.deliver_ms_per_election":    "ms",
	"sim.ns_per_msg":                 "ns",
	"sim.busy_round_frac":            "frac",
	"sim.deliveries_per_election":    "count",
	"sim.fault_drops_per_election":   "count",
	"sim.delayed_per_election":       "count",
	"engine.batch_ms_per_job":        "ms",
	"engine.shard_imbalance":         "x",
	"wire.encode_ns_per_envelope":    "ns",
	"wire.decode_ns_per_envelope":    "ns",
	"wire.bytes_per_election":        "B",
	"wire.envelopes_per_frame":       "count",
	"cluster.barriers_per_election":  "count",
	"cluster.flush_ms_per_election":  "ms",
	"cluster.drain_ms_per_election":  "ms",
	"cluster.overhead_x":             "x",
	"cluster.us_per_barrier":         "us",
	"serve.submit_ms":                "ms",
	"serve.queue_ms":                 "ms",
	"serve.run_ms":                   "ms",
	"serve.observe_lag_ms":           "ms",
	"serve.polls_per_job":            "count",
	"serve.overhead_x":               "x",
	"obs.events_per_election":        "count",
	"obs.trace_overhead_frac":        "frac",
	"runtime.gc_cycles_per_election": "count",
	"runtime.gc_cpu_frac":            "frac",
}

// Layer groups, for zeroLayers on the workloads that bypass them.
var (
	wireClusterLayers = []string{
		"wire.encode_ns_per_envelope", "wire.decode_ns_per_envelope",
		"wire.bytes_per_election", "wire.envelopes_per_frame",
		"cluster.barriers_per_election", "cluster.flush_ms_per_election",
		"cluster.drain_ms_per_election", "cluster.overhead_x", "cluster.us_per_barrier",
	}
	serveEngineLayers = []string{
		"spectral.cache_hit_frac",
		"serve.submit_ms", "serve.queue_ms", "serve.run_ms", "serve.observe_lag_ms",
		"serve.polls_per_job", "serve.overhead_x",
		"engine.batch_ms_per_job", "engine.shard_imbalance",
		"algo.step_ms_per_election", "baseline.step_ms_per_election",
	}
)
