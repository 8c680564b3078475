package experiments

// E19: the wire-level cluster runtime (internal/cluster). The other
// experiments measure the paper's quantities in simulator counters; E19
// runs the same elections across a real 3-shard TCP cluster on loopback
// and measures what the protocol actually puts on the wire — bytes,
// envelopes, barrier iterations — plus wall-clock election latency, per
// backend. Every trial also re-checks the keystone invariant live: the
// cluster must elect the identical leader the in-process sim elects.
//
// E20: supervised failover. Leader leases over the same transport: kill
// worker shards out from under a leased election and measure how long
// the supervisor takes to detect the deaths, quiesce the survivors, and
// grant a new single-leader lease, per backend and per crash count.

import (
	"fmt"
	"time"

	"wcle/internal/algo"
	"wcle/internal/cluster"
	"wcle/internal/engine"
	"wcle/internal/serve"
	"wcle/internal/sim"
)

// e19Shards is the cluster size of the experiment: one coordinator plus
// two workers, the smallest cluster where worker-to-worker edges exist.
const e19Shards = 3

// e19Spec measures the three backends over the cluster transport.
func e19Spec() Spec {
	return Spec{
		ID:    "E19",
		Name:  "cluster-wire",
		Title: "Wire-level cluster runtime: bytes on the wire and election latency per backend",
		Claim: "The CONGEST delivery plane ports to real TCP: identical leaders, message complexity measurable as bytes and packets",
		Preamble: "Every election here runs twice: once on the in-process sim and once across a 3-shard TCP cluster on loopback " +
			"(`internal/cluster`: one process-shaped shard per contiguous node slice, cross-shard edges as length-prefixed binary envelopes, " +
			"and piggybacked round advancement — each shard's next-event contribution rides its final data chunk, preserving synchronous-round " +
			"semantics without a coordinator round-trip). The cluster must elect the identical leader — the wire " +
			"is just another delivery plane — and the paper's message-complexity separation (E17) becomes measurable as actual bytes: " +
			"FloodMax's Omega(m) floods dominate the wire, KPPRT's sublinear committees barely touch it. Latency is wall-clock on loopback, " +
			"so treat it as indicative; the byte and envelope counts are exact and deterministic.",
		FullTrials:  3,
		QuickTrials: 1,
		Points: func(cfg SuiteConfig) []Point {
			var out []Point
			for _, n := range e17Sizes(cfg) {
				out = append(out, Point{Key: fmt.Sprintf("clique-%d", n), Family: "clique", N: n})
			}
			return out
		},
		Trial:  e19Trial,
		Render: renderE19,
	}
}

// e19Trial runs one election per backend, in process and on the cluster,
// and reports the wire accounting.
func e19Trial(cfg SuiteConfig, pt Point, setup interface{}, seed int64) (Metrics, error) {
	local, err := cluster.StartLocal(e19Shards)
	if err != nil {
		return nil, err
	}
	defer local.Close()
	gs := serve.GraphSpec{Family: pt.Family, N: pt.N, Seed: seed}
	g, err := gs.Build()
	if err != nil {
		return nil, err
	}
	m := Metrics{"m": float64(g.M())}
	for i, b := range e17Backends {
		runSeed := sim.DeriveSeed(seed, uint64(0xC1+i))

		p, err := algo.New(b.name, engine.Config{})
		if err != nil {
			return nil, err
		}
		localStart := time.Now()
		ref, refRes, err := algo.Run(p, g, engine.Options{Seed: runSeed, CountSends: true})
		if err != nil {
			return nil, fmt.Errorf("%s in process: %w", b.name, err)
		}
		localMs := time.Since(localStart).Seconds() * 1e3

		wireStart := time.Now()
		res, err := local.Run(cluster.JobSpec{Graph: gs, Algorithm: b.name, Seed: runSeed})
		if err != nil {
			return nil, fmt.Errorf("%s on the cluster: %w", b.name, err)
		}
		wireMs := time.Since(wireStart).Seconds() * 1e3

		// The keystone invariant, live on every measured point: identical
		// leaders AND identical per-node message counts.
		if fmt.Sprint(res.Outcome.Leaders) != fmt.Sprint(ref.Leaders) ||
			res.Outcome.Metrics.Messages != ref.Metrics.Messages {
			return nil, fmt.Errorf("%s diverged between planes: cluster %v/%d msgs, sim %v/%d msgs",
				b.name, res.Outcome.Leaders, res.Outcome.Metrics.Messages, ref.Leaders, ref.Metrics.Messages)
		}
		for v, c := range refRes.PerNodeMessages {
			if v >= len(res.PerNodeMessages) || res.PerNodeMessages[v] != c {
				return nil, fmt.Errorf("%s diverged between planes at node %d: cluster counted %v, sim %d sends",
					b.name, v, res.PerNodeMessages, c)
			}
		}

		m[b.prefix+"_msgs"] = float64(res.Outcome.Metrics.Messages)
		m[b.prefix+"_wire_bytes"] = float64(res.Wire.Bytes)
		m[b.prefix+"_wire_envelopes"] = float64(res.Wire.Envelopes)
		m[b.prefix+"_wire_frames"] = float64(res.Wire.Frames)
		m[b.prefix+"_barriers"] = float64(res.Wire.Barriers)
		m[b.prefix+"_ms"] = wireMs
		m[b.prefix+"_local_ms"] = localMs
		m[b.prefix+"_success"] = b2f(res.Outcome.Success)
	}
	return m, nil
}

func renderE19(cfg SuiteConfig, data []PointData) (*Table, error) {
	t := &Table{
		ID:    "E19",
		Title: "Wire-level cluster runtime: bytes on the wire and election latency per backend",
		Columns: []string{"n", "backend", "msgs", "wire envelopes", "wire KB", "barriers",
			"cluster ms", "in-proc ms", "elected"},
	}
	for _, pd := range data {
		for _, b := range e17Backends {
			t.AddRow(d(pd.Point.N), b.name,
				d64(int64(pd.Median(b.prefix+"_msgs"))),
				d64(int64(pd.Median(b.prefix+"_wire_envelopes"))),
				f1(pd.Median(b.prefix+"_wire_bytes")/1024),
				d64(int64(pd.Median(b.prefix+"_barriers"))),
				f1(pd.Median(b.prefix+"_ms")),
				f1(pd.Median(b.prefix+"_local_ms")),
				fmt.Sprintf("%d/%d", pd.Count(b.prefix+"_success"), len(pd.Trials)))
		}
	}
	for _, b := range e17Backends {
		b := b
		slope, err := fitExponent(data, "clique", func(pd PointData) float64 {
			return pd.Median(b.prefix + "_wire_bytes")
		})
		if err != nil {
			return nil, err
		}
		t.AddNote("%s: fitted wire bytes ~ n^%.2f.", b.name, slope)
	}
	t.AddNote("Every row's cluster election elected the same leader as the in-process sim with the same seed (a trial fails otherwise) — " +
		"the keystone determinism contract of the cluster runtime, also enforced by TestClusterMatchesInProcessSim. " +
		"Barriers count global event rounds: each shard piggybacks its next-event contribution on its final data chunk and takes the " +
		"minimum locally, so idle rounds cost no wire traffic " +
		"(gilbertrs18's schedule spans tens of thousands of simulated rounds but only a few hundred barriers). " +
		"The cluster-vs-in-process latency gap is the price of synchronous rounds over loopback TCP at 3 shards on one machine; " +
		"bytes and envelopes are the machine-independent measurements.")
	t.Plot = ASCIIPlot("median wire bytes vs n (per backend)", "n", "bytes", true, true,
		backendSeries(data, "_wire_bytes"))
	return t, nil
}

// e20Shards is E20's cluster size: a coordinator plus three workers, so
// the crash count can sweep a third, two thirds, or all of the killable
// shards (the coordinator's own shard cannot die).
const e20Shards = 4

// e20N is the supervised graph size (both regimes). Crash counts shrink
// the survivor clique to N - crashes*N/4 nodes, and the smallest of
// those must stay inside GilbertRS18's reliable regime: with the default
// config the success probability is bimodal on cliques — essentially
// zero below n=16, near-certain from n=16 up — so the deepest crash
// count must leave at least 16 nodes standing.
const e20N = 64

// e20Spec measures supervised failover: re-election latency vs crash count.
func e20Spec() Spec {
	return Spec{
		ID:    "E20",
		Name:  "cluster-failover",
		Title: "Supervised failover: crash detection and re-election latency per backend",
		Claim: "Leader election composes into fault recovery: a crashed shard costs one detection plus one re-election over the survivors, and the re-election inherits each backend's complexity profile",
		Preamble: "A 4-shard cluster runs each backend under supervision (`internal/cluster`: the lease is broadcast after the election, workers " +
			"heartbeat, a dead shard's connections sever). The trial then kills 1, 2, or 3 of the worker shards — one at a time, waiting for the " +
			"new lease after each kill — and records the recovery wall time: crash detection, quiescing the survivors, and the re-election over " +
			"the induced survivor subgraph at the derived epoch seed. Every granted lease must carry exactly one leader (a failed election retries " +
			"at a derived seed a bounded number of times; running out is fatal and fails the trial). Wall-clock on loopback is indicative, not " +
			"asymptotic; what the table establishes is " +
			"that recovery is dominated by the re-election itself, so the backend separation of E17/E19 carries over to failover latency.",
		FullTrials:  3,
		QuickTrials: 1,
		Points: func(cfg SuiteConfig) []Point {
			if cfg.MaxN > 0 && cfg.MaxN < e20N {
				return nil // the size is pinned; a cap below it drops the experiment
			}
			var out []Point
			for crashes := 1; crashes < e20Shards; crashes++ {
				out = append(out, Point{Key: fmt.Sprintf("crashes-%d", crashes), Family: "clique", N: e20N, Mult: crashes})
			}
			return out
		},
		Trial:  e20Trial,
		Render: renderE20,
	}
}

// e20Trial supervises one election per backend and kills pt.Mult worker
// shards sequentially, measuring each recovery.
func e20Trial(cfg SuiteConfig, pt Point, setup interface{}, seed int64) (Metrics, error) {
	m := Metrics{}
	for i, b := range e17Backends {
		runSeed := sim.DeriveSeed(seed, uint64(0xE2+i))
		recoverMs, electMs, err := e20Failover(pt, b.name, runSeed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.name, err)
		}
		m[b.prefix+"_elect_ms"] = electMs
		m[b.prefix+"_recover_ms"] = recoverMs
	}
	return m, nil
}

// e20Failover runs one supervised kill sequence and returns the mean
// recovery wall time across the crashes and the initial election wall.
func e20Failover(pt Point, backend string, seed int64) (recoverMs, electMs float64, err error) {
	local, err := cluster.StartLocal(e20Shards)
	if err != nil {
		return 0, 0, err
	}
	defer local.Close()
	spec := cluster.JobSpec{Graph: serve.GraphSpec{Family: pt.Family, N: pt.N, Seed: seed}, Algorithm: backend, Seed: seed}
	leases := make(chan cluster.Event, 64)
	sup, err := local.Coord.Supervise(cluster.SuperviseConfig{
		Spec: spec,
		OnEvent: func(ev cluster.Event) {
			if ev.Kind == cluster.EventLease {
				leases <- ev
			}
		},
	})
	if err != nil {
		return 0, 0, err
	}
	awaitLease := func() error {
		select {
		case <-leases:
			return nil
		case <-time.After(60 * time.Second):
			// A fatal supervision error (a failed election is one) ends
			// the supervision without a lease; report that, not the wait.
			sup.Stop()
			if _, serr := sup.Wait(); serr != nil {
				return serr
			}
			return fmt.Errorf("no lease within 60s")
		}
	}
	if err := awaitLease(); err != nil {
		sup.Stop()
		return 0, 0, fmt.Errorf("initial election: %w", err)
	}
	for victim := 1; victim <= pt.Mult; victim++ {
		if err := local.Kill(victim); err != nil {
			sup.Stop()
			return 0, 0, err
		}
		if err := awaitLease(); err != nil {
			sup.Stop()
			return 0, 0, fmt.Errorf("recovery from crash %d: %w", victim, err)
		}
	}
	sup.Stop()
	reigns, err := sup.Wait()
	if err != nil {
		return 0, 0, err
	}
	if len(reigns) != 1+pt.Mult {
		return 0, 0, fmt.Errorf("%d reigns after %d crashes, want %d", len(reigns), pt.Mult, 1+pt.Mult)
	}
	var sum float64
	for _, r := range reigns[1:] {
		sum += r.RecoverWall.Seconds() * 1e3
	}
	return sum / float64(pt.Mult), reigns[0].ElectWall.Seconds() * 1e3, nil
}

func renderE20(cfg SuiteConfig, data []PointData) (*Table, error) {
	t := &Table{
		ID:    "E20",
		Title: "Supervised failover: crash detection and re-election latency per backend",
		Columns: []string{"crashed shards", "surviving nodes", "backend",
			"initial elect ms", "recover ms"},
	}
	for _, pd := range data {
		survivors := e20N - pd.Point.Mult*(e20N/e20Shards)
		for _, b := range e17Backends {
			t.AddRow(d(pd.Point.Mult), d(survivors), b.name,
				f1(pd.Median(b.prefix+"_elect_ms")),
				f1(pd.Median(b.prefix+"_recover_ms")))
		}
	}
	t.AddNote("Recover ms spans the whole failover: abrupt connection loss, death detection by the lease monitors, the epoch-marker " +
		"quiesce of every survivor, and the re-election over the induced survivor subgraph. Each recovery is one crash (kills are " +
		"sequential, each waiting for the new lease), so rows are directly comparable across crash counts.")
	t.AddNote("Determinism contract: every re-election equals an in-process election over the induced survivor subgraph at the derived " +
		"epoch seed — enforced live by TestSupervisionReelectsAfterCrash, not re-measured here; a lease with anything but exactly one " +
		"leader fails the trial.")
	return t, nil
}
