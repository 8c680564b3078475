package main

// The ops surface of one cluster member: -debug-addr serves
// Prometheus-style /metrics (wire stats, fault counters, round-span
// timings from the flight recorder), /healthz, /flightz (a live NDJSON
// snapshot of the flight recorder), and net/http/pprof under
// /debug/pprof/. -flight-dump writes the flight recorder to a file on
// crash, re-election, or SIGQUIT.

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"wcle/internal/cluster"
	"wcle/internal/obs"
)

// member is the side of the cluster a debug server observes: coordinator
// or worker, unified as accessors.
type member struct {
	role   string // "coordinator" | "worker"
	shard  int
	flight *obs.Ring
	tracer *obs.Tracer
	stats  func() cluster.SessionStats
}

func coordinatorMember(c *cluster.Coordinator) member {
	return member{role: "coordinator", shard: 0, flight: c.Flight(), tracer: c.Tracer(), stats: c.Stats}
}

func workerMember(w *cluster.Worker, shard int) member {
	return member{role: "worker", shard: shard, flight: w.Flight(), tracer: w.Tracer(), stats: w.Stats}
}

// startDebugServer binds addr and serves the ops endpoints until the
// process exits. Returns the bound address.
func startDebugServer(addr string, m member) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("debug listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeNodeMetrics(w, m)
	})
	mux.HandleFunc("/flightz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = m.flight.WriteNDJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() { _ = http.Serve(ln, mux) }()
	fmt.Fprintf(os.Stderr, "electnode: debug endpoints on http://%s (/metrics /healthz /flightz /debug/pprof/)\n", ln.Addr())
	return ln.Addr().String(), nil
}

// writeNodeMetrics renders this member's session accounting in Prometheus
// exposition format.
func writeNodeMetrics(w http.ResponseWriter, m member) {
	s := m.stats()
	fmt.Fprintf(w, "# electnode ops metrics (%s, shard %d)\n", m.role, m.shard)
	fmt.Fprintf(w, "electnode_shard %d\n", m.shard)
	fmt.Fprintf(w, "electnode_jobs_total %d\n", s.Jobs)
	fmt.Fprintf(w, "electnode_job_errors_total %d\n", s.JobErrors)
	fmt.Fprintf(w, "electnode_wire_frames_total %d\n", s.Wire.Frames)
	fmt.Fprintf(w, "electnode_wire_bytes_total %d\n", s.Wire.Bytes)
	fmt.Fprintf(w, "electnode_wire_envelopes_total %d\n", s.Wire.Envelopes)
	fmt.Fprintf(w, "electnode_wire_barriers_total %d\n", s.Wire.Barriers)
	fmt.Fprintf(w, "electnode_messages_total %d\n", s.Messages)
	fmt.Fprintf(w, "electnode_fault_drops_total %d\n", s.FaultDrops)
	fmt.Fprintf(w, "electnode_fault_delays_total %d\n", s.Delayed)
	fmt.Fprintf(w, "electnode_fault_mutations_total %d\n", s.Mutated)
	fmt.Fprintf(w, "electnode_busy_rounds_total %d\n", s.BusyRounds)
	fmt.Fprintf(w, "electnode_trace_events_total %d\n", m.tracer.Emitted())
	fmt.Fprintf(w, "electnode_trace_dropped_total %d\n", m.flight.Dropped())
	fmt.Fprintf(w, "electnode_flight_events %d\n", m.flight.Len())
	// Round-span timings over the flight-recorder window (bounded, so
	// these are sliding sums, not lifetime totals).
	type agg struct {
		sec float64
		n   int64
	}
	spans := map[string]agg{}
	for _, ev := range m.flight.Snapshot() {
		if ev.Dur <= 0 {
			continue
		}
		k := ev.Cat + "/" + ev.Name
		a := spans[k]
		a.sec += float64(ev.Dur) / 1e9
		a.n++
		spans[k] = a
	}
	keys := make([]string, 0, len(spans))
	for k := range spans {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		a := spans[k]
		fmt.Fprintf(w, "electnode_flight_span_seconds{span=%q} %.6f\n", k, a.sec)
		fmt.Fprintf(w, "electnode_flight_span_count{span=%q} %d\n", k, a.n)
	}
}

// dumpFlight writes the flight recorder to path, logging rather than
// failing: a dump is best-effort diagnostics on the way down.
func dumpFlight(m member, path, why string) {
	if path == "" {
		return
	}
	if err := m.flight.DumpFile(path); err != nil {
		fmt.Fprintf(os.Stderr, "electnode: flight dump (%s) failed: %v\n", why, err)
		return
	}
	fmt.Fprintf(os.Stderr, "electnode: flight recorder dumped to %s (%s, %d events)\n", path, why, m.flight.Len())
}

// watchSIGQUIT dumps the flight recorder on every SIGQUIT until the
// process exits. (With the handler installed, SIGQUIT no longer kills the
// process — the dump file is the artifact instead.)
func watchSIGQUIT(m member, path string) {
	if path == "" {
		return
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		for range ch {
			dumpFlight(m, path, "SIGQUIT")
		}
	}()
}
