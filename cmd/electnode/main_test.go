package main

import (
	"math"
	"strings"
	"testing"
)

// buildJob bounds -n before rounding it up to a hypercube dimension or a
// torus side: at math.MaxInt the dimension loop would never end (1<<64 is
// 0) and the side loop would overflow.
func TestBuildJobRejectsOutOfRangeN(t *testing.T) {
	for _, family := range []string{"hypercube", "torus", "clique"} {
		for _, n := range []int{math.MaxInt, 0, -1} {
			_, err := buildJob(family, n, 8, 1, "gilbertrs18", 1, 0, 0)
			if err == nil || !strings.Contains(err.Error(), "out of range") {
				t.Errorf("buildJob(%s, n=%d) = %v, want an out-of-range error", family, n, err)
			}
		}
	}
	spec, err := buildJob("hypercube", 48, 8, 1, "gilbertrs18", 1, 0, 0)
	if err != nil || spec.Graph.Dim != 6 {
		t.Fatalf("buildJob(hypercube, 48) = %+v, %v; want dimension 6", spec.Graph, err)
	}
}
