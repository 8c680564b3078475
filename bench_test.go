package wcle_test

import (
	"runtime"
	"testing"

	"wcle"
	"wcle/internal/experiments"
	"wcle/internal/obs"
	"wcle/internal/protocol"
	"wcle/internal/wire"
)

// benchExperiment runs one reproduction experiment repeats times per
// iteration with a fresh suite (no cross-iteration caching), so ns/op is
// the true cost of regenerating the table that many times. The quick
// regime keeps `go test -bench=.` tractable; cmd/benchsuite runs the full
// regime. An experiment that renders in a millisecond or two repeats
// enough that one iteration lasts at least about 20 ms, so a
// single-iteration run times the experiment rather than scheduler noise.
func benchExperiment(b *testing.B, id string, repeats int) {
	b.Helper()
	var rows int
	for i := 0; i < b.N; i++ {
		for r := 0; r < repeats; r++ {
			tab, err := wcle.RunExperiment(id, 42, true)
			if err != nil {
				b.Fatal(err)
			}
			rows = len(tab.Rows)
		}
	}
	b.ReportMetric(float64(rows), "table-rows")
}

// One benchmark per experiment of DESIGN.md section 3. Each regenerates the
// corresponding EXPERIMENTS.md table.

func BenchmarkE1MessageScaling(b *testing.B)         { benchExperiment(b, "E1", 1) }
func BenchmarkE2TimeScaling(b *testing.B)            { benchExperiment(b, "E2", 1) }
func BenchmarkE3ContenderConcentration(b *testing.B) { benchExperiment(b, "E3", 1) }
func BenchmarkE4UniqueLeader(b *testing.B)           { benchExperiment(b, "E4", 1) }
func BenchmarkE5GuessDouble(b *testing.B)            { benchExperiment(b, "E5", 1) }
func BenchmarkE6MessageModes(b *testing.B)           { benchExperiment(b, "E6", 1) }
func BenchmarkE7Explicit(b *testing.B)               { benchExperiment(b, "E7", 1) }
func BenchmarkE8LowerBoundGraph(b *testing.B)        { benchExperiment(b, "E8", 1) }
func BenchmarkE9InterCliqueDiscovery(b *testing.B)   { benchExperiment(b, "E9", 20) }
func BenchmarkE10BudgetedElection(b *testing.B)      { benchExperiment(b, "E10", 1) }
func BenchmarkE11BroadcastST(b *testing.B)           { benchExperiment(b, "E11", 1) }
func BenchmarkE12Dumbbell(b *testing.B)              { benchExperiment(b, "E12", 1) }
func BenchmarkE13KnownTmix(b *testing.B)             { benchExperiment(b, "E13", 1) }
func BenchmarkE14Ablations(b *testing.B)             { benchExperiment(b, "E14", 1) }
func BenchmarkE15FaultResilience(b *testing.B)       { benchExperiment(b, "E15", 1) }
func BenchmarkE16Throughput(b *testing.B)            { benchExperiment(b, "E16", 1) }

// Micro-benchmarks of the building blocks, with model-level custom metrics.

func BenchmarkElectExpander128(b *testing.B) {
	g, err := wcle.NewRandomRegular(128, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	var msgs int64
	for i := 0; i < b.N; i++ {
		res, err := wcle.Elect(g, wcle.DefaultConfig(), wcle.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		msgs = res.Metrics.Messages
	}
	b.ReportMetric(float64(msgs), "congest-msgs")
}

func BenchmarkElectClique64(b *testing.B) {
	g, err := wcle.NewClique(64, 1)
	if err != nil {
		b.Fatal(err)
	}
	var msgs int64
	for i := 0; i < b.N; i++ {
		res, err := wcle.Elect(g, wcle.DefaultConfig(), wcle.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		msgs = res.Metrics.Messages
	}
	b.ReportMetric(float64(msgs), "congest-msgs")
}

// BenchmarkElectFixedRR8 is electbench's sim-rr8 operation as a go
// benchmark: one gilbertrs18-fixed election (the known-mixing-time, single
// phase form) on a random 8-regular 64-node graph with walks of 2*tmix.
// Each id travels alone under the CONGEST cap, so the cost of an election
// is its message count times the cost of one message; allocs/msg tracks
// the second factor.
func BenchmarkElectFixedRR8(b *testing.B) {
	g, err := wcle.NewRandomRegular(64, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	prof, err := wcle.Profile(g, wcle.SpectralOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := wcle.ProtocolConfig{FixedTu: 2 * prof.Tmix}
	var msgs int64
	b.ReportAllocs()
	b.ResetTimer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		rep, err := wcle.Run("gilbertrs18-fixed", g, cfg, wcle.AlgorithmOptions{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		msgs += rep.Election.Metrics.Messages
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(msgs), "allocs/msg")
}

// Tracer overhead: the same expander election with no tracer (the nil
// fast path every untraced run takes — this must stay indistinguishable
// from BenchmarkElectExpander128) and with the always-on flight ring the
// cluster runtimes attach (a bounded mutex push per round span).
func benchElectTraced(b *testing.B, tr *obs.Tracer) {
	g, err := wcle.NewRandomRegular(128, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wcle.Elect(g, wcle.DefaultConfig(), wcle.Options{Seed: int64(i), Tracer: tr}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Emitted())/float64(b.N), "trace-events/op")
}

func BenchmarkElectTracerDisabled(b *testing.B) {
	benchElectTraced(b, nil)
}

func BenchmarkElectTracerFlightRing(b *testing.B) {
	benchElectTraced(b, obs.New(obs.NewRing(0), 0))
}

// Tracer overhead under faults: one kpprt election on a random 8-regular
// 256-node graph whose delay plane delays two sends in three, as in
// electd's faulty jobs. The flight ring gets one fault tally per kind
// per busy round, not one event per delayed send, so its allocations stay
// within about 1% of the disabled tracer's.
func benchKpprtFaulty(b *testing.B, tr *obs.Tracer) {
	g, err := wcle.NewRandomRegular(256, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := wcle.AlgorithmOptions{Seed: int64(i), Fault: &wcle.Delay{Max: 2}, Tracer: tr}
		if _, err := wcle.Run("kpprt", g, wcle.ProtocolConfig{}, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Emitted())/float64(b.N), "trace-events/op")
}

func BenchmarkKpprtFaultyTracerDisabled(b *testing.B) {
	benchKpprtFaulty(b, nil)
}

func BenchmarkKpprtFaultyFlightRing(b *testing.B) {
	benchKpprtFaulty(b, obs.New(obs.NewRing(0), 0))
}

func BenchmarkFloodMax256(b *testing.B) {
	g, err := wcle.NewRandomRegular(256, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	var msgs int64
	for i := 0; i < b.N; i++ {
		res, err := wcle.FloodMax(g, int64(i), 0)
		if err != nil {
			b.Fatal(err)
		}
		msgs = res.Metrics.Messages
	}
	b.ReportMetric(float64(msgs), "congest-msgs")
}

// BenchmarkFloodMaxFaulty512 is one floodmax election on rr8-512 under
// electd-faulty's composed {drop 0.05, delay_max 2} plane: every send
// draws from a per-sender drop stream and a per-sender delay stream.
func BenchmarkFloodMaxFaulty512(b *testing.B) {
	g, err := wcle.NewRandomRegular(512, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var msgs int64
	for i := 0; i < b.N; i++ {
		fault := wcle.ComposeFaults(&wcle.Drop{P: 0.05}, &wcle.Delay{Max: 2})
		res, err := wcle.Run("floodmax", g, wcle.ProtocolConfig{}, wcle.AlgorithmOptions{Seed: int64(i), Fault: fault})
		if err != nil {
			b.Fatal(err)
		}
		msgs = res.Result.Metrics.Messages
	}
	b.ReportMetric(float64(msgs), "congest-msgs")
}

func BenchmarkPushPull256(b *testing.B) {
	g, err := wcle.NewRandomRegular(256, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := wcle.PushPull(g, wcle.PushPullOptions{Rumor: 7, Seed: int64(i), Horizon: 200})
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllInformed {
			b.Fatal("push-pull did not complete")
		}
	}
}

func BenchmarkMixingTimeHypercube256(b *testing.B) {
	g, err := wcle.NewHypercube(8, 1)
	if err != nil {
		b.Fatal(err)
	}
	var tm int
	for i := 0; i < b.N; i++ {
		v, err := wcle.MixingTimeSampled(g, 1_000_000, []int{0})
		if err != nil {
			b.Fatal(err)
		}
		tm = v
	}
	b.ReportMetric(float64(tm), "tmix-steps")
}

func BenchmarkLowerBoundConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := wcle.NewLowerBoundGraph(1024, 1.0/196, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// Cluster wire hot paths: every cross-shard envelope goes through the
// codec once per side per round, and every large data frame may go
// through flate. These pin the per-envelope and per-frame costs the
// cluster runtime pays.

// benchFlushPayload builds one realistic per-(peer, round) flush: a
// piggybacked data-frame header followed by count token envelopes, the
// shape the plane's writeRound produces every round.
func benchFlushPayload(b *testing.B, count int) []byte {
	b.Helper()
	c, err := protocol.NewCodec(128, protocol.ModeCongest)
	if err != nil {
		b.Fatal(err)
	}
	buf := wire.AppendDataHeader(nil, wire.DataHeader{
		Epoch: 3, Round: 17, Flag: wire.ChunkFinalNext, Next: 18, Count: count,
	})
	for i := 0; i < count; i++ {
		buf, err = wire.AppendEnvelope(buf, wire.Envelope{
			Due: 18, To: i % 64, Port: i % 8, From: -1,
			Msg: c.Token(protocol.ID(1000+i), i%64, 17, i%8),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return buf
}

func BenchmarkClusterFlushEncode(b *testing.B) {
	const count = 64
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = benchFlushPayloadReuse(b, buf[:0], count)
	}
	b.SetBytes(int64(len(buf)))
}

// benchFlushPayloadReuse is the append-onto-buf variant the encoder
// benchmark iterates, mirroring the plane's buffer reuse.
func benchFlushPayloadReuse(b *testing.B, buf []byte, count int) []byte {
	c, err := protocol.NewCodec(128, protocol.ModeCongest)
	if err != nil {
		b.Fatal(err)
	}
	buf = wire.AppendDataHeader(buf, wire.DataHeader{
		Epoch: 3, Round: 17, Flag: wire.ChunkFinalNext, Next: 18, Count: count,
	})
	for i := 0; i < count; i++ {
		buf, err = wire.AppendEnvelope(buf, wire.Envelope{
			Due: 18, To: i % 64, Port: i % 8, From: -1,
			Msg: c.Token(protocol.ID(1000+i), i%64, 17, i%8),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return buf
}

func BenchmarkClusterFlushDecode(b *testing.B) {
	payload := benchFlushPayload(b, 64)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, rest, err := wire.DecodeDataHeader(payload)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < h.Count; j++ {
			var e wire.Envelope
			e, rest, err = wire.DecodeEnvelope(rest)
			if err != nil {
				b.Fatal(err)
			}
			_ = e
		}
	}
}

// The frame benchmarks make one untimed call after set-up, so the pooled
// flate writer or reader exists before the timer starts: allocs/op then
// counts the operation, not set-up or whether the pool survived a GC.
func BenchmarkClusterFrameCompress(b *testing.B) {
	payload := benchFlushPayload(b, 256)
	if _, ok := wire.AppendCompressed(nil, payload); !ok {
		b.Fatal("flush payload did not compress")
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		z, ok := wire.AppendCompressed(nil, payload)
		if !ok {
			b.Fatal("flush payload did not compress")
		}
		ratio = float64(len(z)) / float64(len(payload))
	}
	b.ReportMetric(ratio, "compressed-ratio")
}

func BenchmarkClusterFrameDecompress(b *testing.B) {
	payload := benchFlushPayload(b, 256)
	z, ok := wire.AppendCompressed(nil, payload)
	if !ok {
		b.Fatal("flush payload did not compress")
	}
	if _, err := wire.Decompress(z, wire.MaxDataBytes); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Decompress(z, wire.MaxDataBytes); err != nil {
			b.Fatal(err)
		}
	}
}

// Whole-election cluster benchmark: a clique election over a 3-shard
// loopback cluster, with the round barrier riding each shard's final
// data chunk.
func benchClusterElection(b *testing.B, opt wcle.LocalClusterOptions) {
	local, err := wcle.StartLocalClusterWith(3, opt)
	if err != nil {
		b.Fatal(err)
	}
	defer local.Close()
	spec := wcle.ClusterJob{
		Graph:     wcle.GraphSpec{Family: "clique", N: 32, Seed: 5},
		Algorithm: wcle.DefaultAlgorithm(),
		Seed:      7,
	}
	b.ResetTimer()
	var barriers int64
	for i := 0; i < b.N; i++ {
		res, err := local.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		barriers = res.Wire.Barriers / 3
	}
	b.ReportMetric(float64(barriers), "barriers")
}

func BenchmarkClusterElectionPiggyback(b *testing.B) {
	benchClusterElection(b, wcle.LocalClusterOptions{})
}

// Regenerate the full suite exactly once (the EXPERIMENTS.md pipeline) on
// the parallel harness, verifying every spec stays green under the bench
// harness.
func BenchmarkFullQuickSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := &experiments.Harness{Config: experiments.SuiteConfig{Seed: 42, Quick: true}}
		if _, err := h.Run(nil); err != nil {
			b.Fatal(err)
		}
	}
}
