package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"wcle"
	"wcle/internal/cluster"
	"wcle/internal/obs"
	"wcle/internal/sim"
)

// The election of sim-rr8: the paper's node machinery (internal/core) in
// its known-mixing-time form, one phase of walks, on a random 8-regular
// graph with simN nodes. The walk length is 2*tmix from the graph's spectral
// profile, the repository's convention for this baseline. The default
// guess-and-double schedule instead ends about one election in twelve at
// the 4n walk-length cap with no leader after 28 times the rounds of a
// median one, which puts the p90 of a few hundred elections on a boundary
// between cost levels.
const (
	simN         = 64
	simAlgorithm = "gilbertrs18-fixed"
	// simSetups is how many set-ups sim-rr8 times on each side of its
	// measured phase (one takes about 2 ms).
	simSetups = 200
)

// profiledGraph is a workload graph with the walk length sim-rr8's
// elections take from its spectral profile.
type profiledGraph struct {
	spec    wcle.GraphSpec
	g       *wcle.Graph
	walkLen int
}

// runSim is one sim-rr8 operation: one election through wcle.Run, perfect
// delivery; tracer and send observer optional.
func (b *bench) runSim(sg profiledGraph, seed int64, tr *obs.Tracer, o sim.Observer) (*wcle.RunReport, time.Duration, error) {
	start := time.Now()
	rep, err := wcle.Run(simAlgorithm, sg.g, wcle.ProtocolConfig{FixedTu: sg.walkLen}, wcle.AlgorithmOptions{Seed: seed, Tracer: tr, Observer: o})
	d := b.span("wcle.Run", start, map[string]int64{"traced": boolInt(tr != nil)})
	if err == nil && rep.Election == nil {
		err = fmt.Errorf("wcle.Run reported no election")
	}
	return rep, d, err
}

// simOp runs and checks one election.
func (b *bench) simOp(sg profiledGraph, i int, seed int64, tr *obs.Tracer) (opResult, *wcle.RunReport) {
	rep, d, err := b.runSim(sg, seed, tr, nil)
	if err != nil {
		return opResult{lat: d, elections: 1, err: err}, nil
	}
	b.applyTamper(i, rep.Election)
	return electionOp(rep.Election, d), rep
}

// applyTamper lets the benchmark's test corrupt an outcome before its check.
func (b *bench) applyTamper(i int, out *wcle.AlgorithmOutcome) {
	if b.cfg.tamper != nil {
		b.cfg.tamper(i, out)
	}
}

// buildProfiled is the sim-rr8 set-up: GraphSpec.Build plus wcle.Profile.
func buildProfiled(spec wcle.GraphSpec) (profiledGraph, error) {
	g, err := spec.Build()
	if err != nil {
		return profiledGraph{}, err
	}
	prof, err := wcle.Profile(g, wcle.SpectralOptions{})
	if err != nil {
		return profiledGraph{}, err
	}
	return profiledGraph{spec: spec, g: g, walkLen: 2 * prof.Tmix}, nil
}

func simUntraced(b *bench) error {
	ref := hostRef()
	setup := func(i int) (func(), error) {
		_, err := buildProfiled(setupSpec(b.cfg.seed, simN, i))
		return func() {}, err
	}
	if err := b.timeSetups(simSetups, setup); err != nil {
		return err
	}
	sg, err := buildProfiled(rrSpec(b.cfg.seed, simN))
	if err != nil {
		return err
	}
	for i := 0; i < b.cfg.warmups(); i++ {
		if _, _, err := b.runSim(sg, warmupSeed(b.cfg.seed, i), nil, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	workers := runtime.NumCPU()
	st := closedLoop(workers, b.cfg.ops(), b.cfg.seconds, func(i int) opResult {
		r, _ := b.simOp(sg, i, opSeed(b.cfg.seed, i), nil)
		return r
	})
	if err := b.timeSetups(simSetups, setup); err != nil {
		return err
	}
	b.endToEnd(st)
	b.logf("walk length: %d (2*tmix)", sg.walkLen)
	b.set("peak_rss_mb", peakRSSMB())
	b.hostRefAfter(ref)
	return nil
}

// simTraced is sim-rr8's traced run. Per seed it runs the election four
// ways, in rotating order: through wcle.Run traced and untraced, and on a
// two-shard cluster traced and untraced. The in-process runs give the core
// and sim layers; the cluster runs give the wire and cluster layers, and
// are checked live against wcle.Run at the same seed (the keystone
// invariant: same leaders, rounds and per-node sends).
func simTraced(b *bench) error {
	ref := hostRef()
	sg, err := b.graphLayers(rrSpec(b.cfg.seed, simN), 15)
	if err != nil {
		return err
	}
	simSink, clusterSink := newAggSink(), newAggSink()
	tracer := obs.New(simSink, 0)
	lt, err := startCluster(cluster.LocalOptions{TraceSink: clusterSink})
	if err != nil {
		return err
	}
	defer lt.Close()
	lu, err := startCluster(cluster.LocalOptions{})
	if err != nil {
		return err
	}
	defer lu.Close()
	for i := 0; i < b.cfg.warmups(); i++ {
		seed := warmupSeed(b.cfg.seed, i)
		if _, _, err := b.runSim(sg, seed, tracer, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		for _, l := range []*cluster.Local{lt, lu} {
			if _, _, err := b.runCluster(l, sg, seed, "Local.Run"); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	simSink.take()
	clusterSink.take()

	var tracedLat, plainLat, overhead, usBarrier, encNs, decNs []float64
	var compute, flush, deliver, hostNs, clusterFlush, clusterDrain float64
	var msgs, busy, rounds, deliveries, events, wireBytes, envelopes, frames, barriers int64
	minIters := b.tracedIters()
	gc0 := readGC()
	elections := 0
	start := time.Now()
	for i := 0; !stopLoop(start, b.cfg.seconds, i, minIters); i++ {
		seed := opSeed(b.cfg.seed, i)
		var traced, plain *wcle.RunReport
		var ct, cu *cluster.Result
		var tLat, pLat, cuLat time.Duration
		for k := 0; k < 4; k++ {
			switch (i + k) % 4 {
			case 0:
				r, rep := b.simOp(sg, i, seed, tracer)
				b.count(r.err)
				traced, tLat = rep, r.lat
			case 1:
				r, rep := b.simOp(sg, i, seed, nil)
				b.count(r.err)
				plain, pLat = rep, r.lat
			case 2:
				r, res := b.clusterOp(lt, sg, seed, "Local.Run traced")
				b.count(r.err)
				ct = res
			case 3:
				r, res := b.clusterOp(lu, sg, seed, "Local.Run")
				b.count(r.err)
				cu, cuLat = res, r.lat
			}
		}
		elections += 4
		st, cs := simSink.take(), clusterSink.take()
		if traced == nil || plain == nil || ct == nil || cu == nil {
			continue
		}
		// Tracing must not change what is elected, and the cluster must
		// elect what wcle.Run elects, node for node.
		b.count(wrapErr(sameElection(traced.Election, plain.Election), "seed %d: traced run differs from untraced", seed))
		for _, res := range []*cluster.Result{ct, cu} {
			err := sameElection(&res.Outcome, plain.Election)
			if err == nil && !slices.Equal(res.PerNodeMessages, plain.Result.PerNodeMessages) {
				err = fmt.Errorf("per-node sends differ")
			}
			b.count(wrapErr(err, "seed %d: cluster differs from wcle.Run", seed))
		}
		if i < captureIters {
			c := &captureObserver{half: sg.g.N() / 2}
			if _, _, err := b.runSim(sg, seed, nil, c); err != nil {
				return fmt.Errorf("capture run: %w", err)
			}
			enc, dec, err := codecTimes(c)
			if err == nil && int64(c.n) != cu.Wire.Envelopes {
				err = fmt.Errorf("captured %d cross-shard envelopes, the cluster sent %d", c.n, cu.Wire.Envelopes)
			}
			b.count(err)
			encNs = append(encNs, enc)
			decNs = append(decNs, dec)
		}
		tracedLat = append(tracedLat, msOf(tLat))
		plainLat = append(plainLat, msOf(pLat))
		c, f := st.ms("sim", "compute"), st.ms("sim", "flush")
		compute += c
		flush += f
		deliver += msOf(tLat) - c - f
		hostNs += float64(pLat)
		m := plain.Election.Metrics
		msgs += m.Messages
		clusterFlush += cs.ms("cluster", "wire-flush")
		clusterDrain += cs.ms("cluster", "drain")
		shardBarriers := cu.Wire.Barriers / int64(cu.Shards)
		overhead = append(overhead, ratio(float64(cuLat), float64(pLat)))
		usBarrier = append(usBarrier, ratio(float64(cuLat-pLat)/float64(time.Microsecond), float64(shardBarriers)))
		if i < minIters {
			busy += m.BusyRounds
			rounds += int64(plain.Election.Rounds)
			deliveries += m.Deliveries
			events += cs.events()
			wireBytes += cu.Wire.Bytes
			envelopes += cu.Wire.Envelopes
			frames += cu.Wire.Frames
			barriers += shardBarriers
		}
	}
	b.runtimeMetrics(gc0, elections)
	n, fixed := float64(len(tracedLat)), float64(minIters)
	b.set("core.step_ms_per_election", ratio(compute, n))
	b.set("sim.flush_ms_per_election", ratio(flush, n))
	b.set("sim.deliver_ms_per_election", ratio(deliver, n))
	b.set("sim.ns_per_msg", ratio(hostNs, float64(msgs)))
	b.set("sim.busy_round_frac", ratio(float64(busy), float64(rounds)))
	b.set("sim.deliveries_per_election", ratio(float64(deliveries), fixed))
	b.set("sim.fault_drops_per_election", 0)
	b.set("sim.delayed_per_election", 0)
	b.set("wire.encode_ns_per_envelope", median(encNs))
	b.set("wire.decode_ns_per_envelope", median(decNs))
	b.set("wire.bytes_per_election", ratio(float64(wireBytes), fixed))
	b.set("wire.envelopes_per_frame", ratio(float64(envelopes), float64(frames)))
	b.set("cluster.barriers_per_election", ratio(float64(barriers), fixed))
	b.set("cluster.flush_ms_per_election", ratio(clusterFlush, n))
	b.set("cluster.drain_ms_per_election", ratio(clusterDrain, n))
	b.set("cluster.overhead_x", median(overhead))
	b.set("cluster.us_per_barrier", median(usBarrier))
	// wcle.Run emits no events unless given a tracer; the cluster's shards
	// feed their always-on flight recorders.
	b.set("obs.events_per_election", ratio(float64(events), fixed))
	b.set("obs.trace_overhead_frac", ratio(median(tracedLat), median(plainLat))-1)
	b.zeroLayers(serveEngineLayers...)
	b.logf("traced loop: %d seeds, each through wcle.Run traced and untraced and on the cluster traced and untraced", len(tracedLat))
	b.hostRefAfter(ref)
	if err := lt.Close(); err != nil {
		return err
	}
	return lu.Close()
}

// sameElection compares the deterministic parts of two outcomes.
func sameElection(a, b *wcle.AlgorithmOutcome) error {
	if a == nil || b == nil {
		return fmt.Errorf("missing outcome")
	}
	if fmt.Sprint(a.Leaders) != fmt.Sprint(b.Leaders) {
		return fmt.Errorf("leaders %v vs %v", a.Leaders, b.Leaders)
	}
	if a.Metrics.Messages != b.Metrics.Messages || a.Rounds != b.Rounds {
		return fmt.Errorf("messages %d vs %d, rounds %d vs %d", a.Metrics.Messages, b.Metrics.Messages, a.Rounds, b.Rounds)
	}
	return nil
}

// wrapErr prefixes a non-nil error with context and passes nil through.
func wrapErr(err error, format string, args ...interface{}) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf(format+": %w", append(args, err)...)
}

func boolInt(v bool) int64 {
	if v {
		return 1
	}
	return 0
}
