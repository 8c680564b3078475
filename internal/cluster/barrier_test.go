package cluster

// Barrier-mode tests: the keystone determinism contract must hold — and
// the wire counters must tell the truth — with the piggybacked barrier
// on raw data frames (the default) and on compressed ones.

import (
	"fmt"
	"testing"

	"wcle/internal/algo"
	"wcle/internal/serve"
)

// TestBarrierModesKeystone runs the same seeds through every session
// mode and the in-process sim: identical leaders and per-node message
// counts everywhere, and real savings when compressed.
func TestBarrierModesKeystone(t *testing.T) {
	// Force compression onto small elections so the compressed modes
	// actually exercise frameDataZ.
	oldMin := compressMinBytes
	compressMinBytes = 32
	defer func() { compressMinBytes = oldMin }()

	modes := []struct {
		name string
		opt  LocalOptions
	}{
		{"piggyback", LocalOptions{}},
		{"piggyback-compressed", LocalOptions{Compress: true}},
	}
	spec := JobSpec{Graph: serve.GraphSpec{Family: "clique", N: 18, Seed: 5}, Seed: 41}
	for _, backend := range algo.Names() {
		spec.Algorithm = backend
		want, wantCounts := electInProcess(t, spec)
		for _, mode := range modes {
			t.Run(fmt.Sprintf("%s/%s", backend, mode.name), func(t *testing.T) {
				local, err := StartLocalWith(3, mode.opt)
				if err != nil {
					t.Fatal(err)
				}
				defer local.Close()
				got, err := local.Run(spec)
				if err != nil {
					t.Fatalf("cluster elect: %v", err)
				}
				assertOutcomesMatch(t, want, &got.Outcome)
				for v := range wantCounts {
					if got.PerNodeMessages[v] != wantCounts[v] {
						t.Fatalf("node %d sent %d on the cluster, %d in process", v, got.PerNodeMessages[v], wantCounts[v])
					}
				}
				w := got.Wire
				if mode.opt.Compress {
					if w.CompressedFrames == 0 {
						t.Errorf("compressed session sent no compressed frames (wire %+v)", w)
					}
					if w.CompressedBytes >= w.RawBytes {
						t.Errorf("compression grew the wire: %d raw -> %d compressed", w.RawBytes, w.CompressedBytes)
					}
				} else if w.CompressedFrames != 0 || w.RawBytes != 0 || w.CompressedBytes != 0 {
					t.Errorf("uncompressed session reported compression counters: %+v", w)
				}
			})
		}
	}
}

// TestBarrierModesFaultParity: the keystone holds under a fault plane in
// every mode — drops/delays/crashes are sender-keyed, so piggybacked
// contributions still account for every in-flight envelope.
func TestBarrierModesFaultParity(t *testing.T) {
	oldMin := compressMinBytes
	compressMinBytes = 32
	defer func() { compressMinBytes = oldMin }()

	fault := serve.FaultSpec{Drop: 0.12, DelayMax: 3, CrashFrac: 0.1, CrashRound: 2}
	spec := JobSpec{
		Graph:     serve.GraphSpec{Family: "clique", N: 18, Seed: 5},
		Algorithm: algo.FloodMax,
		Seed:      17,
		Fault:     fault,
	}
	want, wantCounts := electInProcess(t, spec)
	for _, mode := range []struct {
		name string
		opt  LocalOptions
	}{
		{"piggyback", LocalOptions{}},
		{"piggyback-compressed", LocalOptions{Compress: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			local, err := StartLocalWith(3, mode.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer local.Close()
			got, err := local.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			assertOutcomesMatch(t, want, &got.Outcome)
			if got.Outcome.Metrics.FaultDrops != want.Metrics.FaultDrops {
				t.Errorf("fault drops %d, want %d", got.Outcome.Metrics.FaultDrops, want.Metrics.FaultDrops)
			}
			for v := range wantCounts {
				if got.PerNodeMessages[v] != wantCounts[v] {
					t.Fatalf("node %d sent %d on the cluster, %d in process", v, got.PerNodeMessages[v], wantCounts[v])
				}
			}
		})
	}
}

// TestFrameQueueDeque pins the queue's deque semantics: FIFO order,
// pushFront landing ahead of queued frames, and head-slot reuse instead
// of a fresh allocation per pushFront.
func TestFrameQueueDeque(t *testing.T) {
	q := newFrameQueue()
	mk := func(i int) frame { return frame{typ: frameData, payload: []byte{byte(i)}} }
	for i := 0; i < 5; i++ {
		q.push(mk(i))
	}
	f, ok, err := q.tryNext()
	if err != nil || !ok || f.payload[0] != 0 {
		t.Fatalf("tryNext = %v %v %v, want frame 0", f, ok, err)
	}
	// Returning a frame after a pop must reuse the popped slot (no shift,
	// no fresh backing array) and come back out first.
	q.pushFront(mk(99))
	for _, wantB := range []byte{99, 1, 2, 3, 4} {
		f, ok, err := q.tryNext()
		if err != nil || !ok || f.payload[0] != wantB {
			t.Fatalf("tryNext = %v %v %v, want frame %d", f, ok, err, wantB)
		}
	}
	if _, ok, err := q.tryNext(); ok || err != nil {
		t.Fatalf("drained queue returned ok=%v err=%v", ok, err)
	}
	// Drained queue rewinds, so the backing array keeps being reused.
	if q.head != 0 || len(q.frames) != 0 {
		t.Fatalf("drained queue left head=%d len=%d", q.head, len(q.frames))
	}
	// pushFront on an empty queue still works (degenerates to push).
	q.pushFront(mk(7))
	if f, ok, _ := q.tryNext(); !ok || f.payload[0] != 7 {
		t.Fatalf("pushFront on empty queue lost the frame (%v %v)", f, ok)
	}
}

// TestFrameQueuePushFrontNoAlloc: re-queueing after a pop is
// allocation-free (the satellite fix for the old copy-everything
// pushFront).
func TestFrameQueuePushFrontNoAlloc(t *testing.T) {
	q := newFrameQueue()
	f := frame{typ: frameData}
	for i := 0; i < 64; i++ {
		q.push(f)
	}
	allocs := testing.AllocsPerRun(100, func() {
		g, ok, err := q.tryNext()
		if !ok || err != nil {
			t.Fatal("queue unexpectedly empty")
		}
		q.pushFront(g)
	})
	if allocs != 0 {
		t.Fatalf("pop+pushFront allocated %.1f times per run, want 0", allocs)
	}
}
