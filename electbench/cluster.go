package main

import (
	"bytes"
	"fmt"
	"time"

	"wcle"
	"wcle/internal/cluster"
	"wcle/internal/sim"
	"wcle/internal/wire"
)

// The cluster sim-rr8's traced run compares wcle.Run against: two shards
// in this process on loopback TCP.
const clusterShards = 2

// probeSpec is the election startCluster runs to see both shards joined:
// Local.Run returns only once the session is assembled.
var probeSpec = cluster.JobSpec{Graph: wcle.GraphSpec{Family: "path", N: 2}, Algorithm: "floodmax"}

// startCluster starts a cluster and waits until both shards have joined.
func startCluster(opt cluster.LocalOptions) (*cluster.Local, error) {
	l, err := cluster.StartLocalWith(clusterShards, opt)
	if err != nil {
		return nil, err
	}
	if _, err := l.Run(probeSpec); err != nil {
		_ = l.Close()
		return nil, fmt.Errorf("probe election: %w", err)
	}
	return l, nil
}

// runCluster runs sim-rr8's election at seed on the cluster: one Local.Run
// call.
func (b *bench) runCluster(l *cluster.Local, sg profiledGraph, seed int64, name string) (*cluster.Result, time.Duration, error) {
	start := time.Now()
	res, err := l.Run(cluster.JobSpec{Graph: sg.spec, Algorithm: simAlgorithm, FixedTu: sg.walkLen, Seed: seed})
	return res, b.span(name, start, nil), err
}

// clusterOp runs and checks one cluster election.
func (b *bench) clusterOp(l *cluster.Local, sg profiledGraph, seed int64, name string) (opResult, *cluster.Result) {
	res, d, err := b.runCluster(l, sg, seed, name)
	if err != nil {
		return opResult{lat: d, elections: 1, err: err}, nil
	}
	return electionOp(&res.Outcome, d), res
}

// captureObserver encodes every cross-shard send of an in-process run as
// the cluster's wire would carry it. It encodes at capture time because
// the sim recycles pooled messages after delivery.
type captureObserver struct {
	half int // nodes [0, half) sit on shard 0 of two
	buf  []byte
	n    int
	err  error
}

func (c *captureObserver) OnSend(round, from, fromPort, to, toPort int, m sim.Message) {
	if (from < c.half) == (to < c.half) || c.err != nil {
		return
	}
	c.buf, c.err = wire.AppendEnvelope(c.buf, wire.Envelope{Due: round + 1, To: to, Port: toPort, From: -1, Msg: m})
	c.n++
}

// captureIters is how many seeds of a traced loop also feed the wire codec
// measurement.
const captureIters = 3

// codecTimes decodes the captured envelopes and encodes them again, five
// passes each, and returns the median ns per envelope of each. Encoding
// what was decoded must give back the captured bytes.
func codecTimes(c *captureObserver) (encNs, decNs float64, err error) {
	if c.err != nil {
		return 0, 0, c.err
	}
	if c.n == 0 {
		return 0, 0, fmt.Errorf("no cross-shard envelopes captured")
	}
	envs := make([]wire.Envelope, 0, c.n)
	out := make([]byte, 0, len(c.buf))
	var enc, dec []float64
	for pass := 0; pass < 5; pass++ {
		envs = envs[:0]
		start := time.Now()
		rest := c.buf
		for len(rest) > 0 {
			var e wire.Envelope
			e, rest, err = wire.DecodeEnvelope(rest)
			if err != nil {
				return 0, 0, fmt.Errorf("decode: %w", err)
			}
			envs = append(envs, e)
		}
		dec = append(dec, float64(time.Since(start))/float64(len(envs)))
		out = out[:0]
		start = time.Now()
		for _, e := range envs {
			if out, err = wire.AppendEnvelope(out, e); err != nil {
				return 0, 0, fmt.Errorf("encode: %w", err)
			}
		}
		enc = append(enc, float64(time.Since(start))/float64(len(envs)))
		if len(envs) != c.n || !bytes.Equal(out, c.buf) {
			return 0, 0, fmt.Errorf("decode and re-encode of %d envelopes did not give back the captured bytes", c.n)
		}
	}
	return median(enc), median(dec), nil
}
