// Command electnode is one process of a wire-level election cluster: it
// hosts a contiguous shard of the graph's nodes and runs the registered
// election backends over real TCP against its peer processes
// (internal/cluster).
//
// Three modes, chosen by flags:
//
//   - coordinator (default): listen on -listen, admit -shards-1 workers,
//     then run the election described by the job flags and print the
//     merged outcome. With -serve it instead stays up and answers
//     submissions (-submit clients, electd -cluster) until SIGTERM. With
//     -supervise it runs the job as a leased election — workers
//     heartbeat, a crashed shard triggers an automatic re-election over
//     the survivors, and a restarted shard rejoins at the next epoch.
//   - worker: join the coordinator at -bootstrap as shard -shard, serve
//     jobs until the coordinator shuts the session down.
//   - client: -submit <addr> sends the job flags to a running
//     coordinator and prints the outcome.
//
// The fault flags (-drop, -delay-max, -crash-frac/-crash-round,
// -partition-*) attach a delivery-plane adversary to the job. Every
// plane they can express is shard-safe, so a faulty cluster run stays
// byte-identical to the in-process sim at the same seed.
//
// Session flag (coordinator only): -compress flate-compresses large data
// frames on every shard; the coordinator announces the setting in the
// peer directory, so workers need no flag. Every process of a cluster
// must run the same build: a worker speaking another wire-protocol
// version is refused at join.
//
// Examples:
//
//	electnode -listen 127.0.0.1:7000 -shards 3 -graph clique -n 48 -algo kpprt -seed 7
//	electnode -bootstrap 127.0.0.1:7000 -shard 1 -listen 127.0.0.1:7001
//	electnode -bootstrap 127.0.0.1:7000 -shard 2 -listen 127.0.0.1:7002
//	electnode -listen 127.0.0.1:7000 -shards 3 -serve
//	electnode -submit 127.0.0.1:7000 -graph rr -n 64 -d 8 -algo gilbertrs18 -drop 0.05
//	electnode -listen 127.0.0.1:7000 -shards 3 -supervise -graph clique -n 48 -algo kpprt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wcle"
	"wcle/internal/algo"
	"wcle/internal/cluster"
	"wcle/internal/obs"
	"wcle/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "electnode:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen    = flag.String("listen", "127.0.0.1:0", "this process's listen address (port 0 picks an ephemeral port)")
		bootstrap = flag.String("bootstrap", "", "worker mode: the coordinator's address to join")
		shard     = flag.Int("shard", 0, "worker mode: this process's shard id (the coordinator is shard 0)")
		shards    = flag.Int("shards", 3, "coordinator mode: total process count, coordinator included")
		serve     = flag.Bool("serve", false, "coordinator mode: keep serving submissions instead of running one job")
		submit    = flag.String("submit", "", "client mode: submit the job flags to a running coordinator at this address")
		readyFile = flag.String("ready-file", "", "write the bound coordinator address to this file once listening")

		family   = flag.String("graph", "clique", "graph family: clique|cycle|path|hypercube|torus|rr")
		n        = flag.Int("n", 48, "target node count")
		d        = flag.Int("d", 8, "degree for rr")
		gseed    = flag.Int64("graph-seed", 1, "graph construction seed (port numbering)")
		algoName = flag.String("algo", wcle.DefaultAlgorithm(),
			fmt.Sprintf("election backend: %s", strings.Join(wcle.Algorithms(), "|")))
		seed    = flag.Int64("seed", 1, "election seed")
		horizon = flag.Int("horizon", 0, "floodmax decision round (0 = n)")
		hops    = flag.Int("hops", 0, "kpprt referee-sampling walk length (0 = auto)")
		jsonOut = flag.Bool("json", false, "print the full merged result as JSON")

		drop          = flag.Float64("drop", 0, "fault plane: drop each send with this probability [0,1)")
		delayMax      = flag.Int("delay-max", 0, "fault plane: delay each send by uniform [0,max] extra rounds")
		crashFrac     = flag.Float64("crash-frac", 0, "fault plane: crash this fraction of nodes [0,1)")
		crashRound    = flag.Int("crash-round", 0, "fault plane: the round the sampled nodes crash at")
		partitionFrac = flag.Float64("partition-frac", 0, "fault plane: cut off a sampled minority of this fraction [0,1)")
		partitionFrom = flag.Int("partition-from", 0, "fault plane: first round of the partition")
		partitionTo   = flag.Int("partition-to", 0, "fault plane: first round after the heal (<= from never heals)")

		supervise = flag.Bool("supervise", false, "coordinator mode: supervise the job flags as a leased election — heartbeats, crash detection, automatic re-election — until SIGTERM")

		compress = flag.Bool("compress", false, "coordinator mode: flate-compress large data frames on every shard of the session")

		debugAddr  = flag.String("debug-addr", "", "serve ops endpoints (/metrics /healthz /flightz /debug/pprof/) on this address")
		flightDump = flag.String("flight-dump", "", "dump the flight recorder (NDJSON) to this file on crash, re-election, or SIGQUIT")
		traceOut   = flag.String("trace", "", "stream this process's trace events to this NDJSON file (coordinator or worker)")
	)
	flag.Parse()

	if *bootstrap != "" && *submit != "" {
		return fmt.Errorf("-bootstrap (worker) and -submit (client) are mutually exclusive")
	}
	if *algoName != "" && !algo.Known(*algoName) {
		return fmt.Errorf("unknown algorithm %q (registered backends: %s)", *algoName, strings.Join(algo.Names(), ", "))
	}
	spec, err := buildJob(*family, *n, *d, *gseed, *algoName, *seed, *horizon, *hops)
	if err != nil {
		return err
	}
	spec.Fault = wcle.FaultSpec{
		Drop: *drop, DelayMax: *delayMax,
		CrashFrac: *crashFrac, CrashRound: *crashRound,
		PartitionFrac: *partitionFrac, PartitionFrom: *partitionFrom, PartitionTo: *partitionTo,
	}
	if err := spec.Fault.Validate(); err != nil {
		return err
	}

	sink, flushSink, err := openTraceSink(*traceOut)
	if err != nil {
		return err
	}
	defer flushSink()

	switch {
	case *bootstrap != "":
		return runWorker(*bootstrap, *shard, *listen, *debugAddr, *flightDump, sink)
	case *submit != "":
		res, err := cluster.Submit(*submit, spec)
		if err != nil {
			return err
		}
		return printResult(res, *jsonOut)
	default:
		cfg := cluster.CoordinatorConfig{
			Listen: *listen, Shards: *shards,
			Compress:  *compress,
			TraceSink: sink,
		}
		return runCoordinator(cfg, *serve, *supervise, *readyFile, spec, *jsonOut, *debugAddr, *flightDump)
	}
}

// openTraceSink opens -trace's NDJSON stream; the returned flush closes
// it on the way out. A blank path yields a nil sink (tracing still feeds
// the always-on flight recorder).
func openTraceSink(path string) (obs.Sink, func(), error) {
	if path == "" {
		return nil, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, fmt.Errorf("-trace: %w", err)
	}
	ws := obs.NewWriterSink(f)
	flush := func() {
		if err := ws.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "electnode: trace flush: %v\n", err)
		}
		f.Close()
	}
	return ws, flush, nil
}

// buildJob assembles the JobSpec from the job flags. n is bounded before
// it is rounded up to a hypercube dimension or a torus side.
func buildJob(family string, n, d int, gseed int64, algoName string, seed int64, horizon, hops int) (cluster.JobSpec, error) {
	if n < 1 || n > serve.MaxGraphNodes {
		return cluster.JobSpec{}, fmt.Errorf("-n %d out of range [1, %d]", n, serve.MaxGraphNodes)
	}
	gs := wcle.GraphSpec{Family: family, Seed: gseed}
	switch family {
	case "clique", "cycle", "path":
		gs.N = n
	case "rr":
		gs.N, gs.D = n, d
	case "hypercube":
		for 1<<gs.Dim < n {
			gs.Dim++
		}
	case "torus":
		side := 1
		for side*side < n {
			side++
		}
		gs.Rows, gs.Cols = side, side
	default:
		return cluster.JobSpec{}, fmt.Errorf("unknown graph family %q", family)
	}
	return cluster.JobSpec{
		Graph:     gs,
		Algorithm: algoName,
		Seed:      seed,
		Horizon:   horizon,
		Hops:      hops,
	}, nil
}

// runWorker joins and serves until the session ends.
func runWorker(bootstrap string, shard int, listen, debugAddr, flightDump string, sink obs.Sink) error {
	w, err := cluster.NewWorker(cluster.WorkerConfig{Bootstrap: bootstrap, Shard: shard, Listen: listen, TraceSink: sink})
	if err != nil {
		return err
	}
	m := workerMember(w, shard)
	if debugAddr != "" {
		if _, err := startDebugServer(debugAddr, m); err != nil {
			return err
		}
	}
	watchSIGQUIT(m, flightDump)
	fmt.Fprintf(os.Stderr, "electnode: shard %d listening on %s, joined %s\n", shard, w.Addr(), bootstrap)
	done := make(chan error, 1)
	go func() { done <- w.Run() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err == nil {
			fmt.Fprintf(os.Stderr, "electnode: shard %d shut down cleanly\n", shard)
		} else {
			dumpFlight(m, flightDump, "crash")
		}
		return err
	case <-sig:
		fmt.Fprintf(os.Stderr, "electnode: shard %d interrupted\n", shard)
		return nil
	}
}

// runCoordinator assembles the cluster, then serves submissions (-serve),
// supervises a leased election (-supervise), or runs the one job described
// by the flags.
func runCoordinator(cfg cluster.CoordinatorConfig, serve, supervise bool, readyFile string, spec cluster.JobSpec, jsonOut bool, debugAddr, flightDump string) error {
	coord, err := cluster.NewCoordinator(cfg)
	if err != nil {
		return err
	}
	defer coord.Shutdown()
	m := coordinatorMember(coord)
	if debugAddr != "" {
		if _, err := startDebugServer(debugAddr, m); err != nil {
			return err
		}
	}
	watchSIGQUIT(m, flightDump)
	fmt.Fprintf(os.Stderr, "electnode: coordinator of %d shards listening on %s\n", cfg.Shards, coord.Addr())
	if readyFile != "" {
		// Write-then-rename so pollers never read a partial address.
		tmp := readyFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(coord.Addr()), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, readyFile); err != nil {
			return err
		}
	}
	if supervise {
		return runSupervised(coord, spec, m, flightDump)
	}
	if serve {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(os.Stderr, "electnode: coordinator shutting the session down")
		coord.Shutdown()
		return nil
	}
	res, err := coord.Run(spec)
	if err != nil {
		return err
	}
	coord.Shutdown()
	return printResult(res, jsonOut)
}

// runSupervised runs the job under supervision: elect, lease, monitor,
// re-elect on crashes and rejoins, printing one line per event, until
// SIGTERM stops the supervision cleanly.
func runSupervised(coord *cluster.Coordinator, spec cluster.JobSpec, m member, flightDump string) error {
	sup, err := coord.Supervise(cluster.SuperviseConfig{
		Spec: spec,
		OnEvent: func(ev cluster.Event) {
			switch ev.Kind {
			case cluster.EventLease:
				fmt.Printf("lease: epoch=%d leader=%d shard=%d\n", ev.Epoch, ev.Leader, ev.LeaderShard)
			case cluster.EventDeath:
				fmt.Printf("death: epoch=%d shard=%d err=%v\n", ev.Epoch, ev.Shard, ev.Err)
				dumpFlight(m, flightDump, "re-election")
			case cluster.EventRejoin:
				fmt.Printf("rejoin: epoch=%d shard=%d\n", ev.Epoch, ev.Shard)
			}
		},
	})
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-sig:
			fmt.Fprintln(os.Stderr, "electnode: stopping the supervision")
			sup.Stop()
		case <-done:
		}
	}()
	reigns, err := sup.Wait()
	close(done)
	for _, r := range reigns {
		fmt.Printf("reign: epoch=%d leader=%d shard=%d members=%d elect=%s recover=%s\n",
			r.Epoch, r.Leader, r.LeaderShard, len(r.Result.PerNodeMessages), r.ElectWall.Round(time.Millisecond), r.RecoverWall.Round(time.Millisecond))
	}
	return err
}

// printResult renders a merged result.
func printResult(res *cluster.Result, jsonOut bool) error {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	out := res.Outcome
	fmt.Printf("cluster: %d shards over %d nodes\n", res.Shards, res.N)
	fmt.Printf("algorithm: %s (explicit=%v)\n", out.Algorithm, out.Explicit)
	fmt.Printf("outcome: leaders=%v success=%v contenders=%d\n", out.Leaders, out.Success, out.Contenders)
	fmt.Printf("leaderRound=%d totalRounds=%d\n", out.LeaderRound, out.Rounds)
	fmt.Printf("messages=%d bits=%d deliveries=%d byKind=%v\n",
		out.Metrics.Messages, out.Metrics.Bits, out.Metrics.Deliveries, out.Metrics.ByKind)
	fmt.Printf("wire: frames=%d bytes=%d envelopes=%d barriers=%d\n",
		res.Wire.Frames, res.Wire.Bytes, res.Wire.Envelopes, res.Wire.Barriers)
	if res.Wire.CompressedFrames > 0 {
		fmt.Printf("compression: compressed_frames=%d raw_bytes=%d compressed_bytes=%d\n",
			res.Wire.CompressedFrames, res.Wire.RawBytes, res.Wire.CompressedBytes)
	}
	return nil
}
