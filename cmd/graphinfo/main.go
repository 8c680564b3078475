// Command graphinfo reports the spectral quantities the paper's analysis is
// written in: mixing time, the second eigenvalue of the lazy walk,
// conductance bounds, and basic structure.
//
// Example:
//
//	graphinfo -graph hypercube -n 256
//	graphinfo -graph lb -n 1024 -alpha 0.005
package main

import (
	"flag"
	"fmt"
	"os"

	"wcle"
	"wcle/internal/core"
	"wcle/internal/graph"
	"wcle/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "graphinfo:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		family = flag.String("graph", "rr", "graph family: clique|cycle|hypercube|torus|rr|lb|dumbbell")
		n      = flag.Int("n", 128, "target node count")
		d      = flag.Int("d", 8, "degree for rr/dumbbell")
		alpha  = flag.Float64("alpha", 1.0/196, "conductance scale for lb")
		seed   = flag.Int64("seed", 1, "construction seed")
		tmax   = flag.Int("tmax", 5_000_000, "mixing time search cap")
		exact  = flag.Bool("exact-tmix", false, "maximize over every start node (slow)")
	)
	flag.Parse()

	g, err := build(*family, *n, *d, *alpha, *seed)
	if err != nil {
		return err
	}
	min, max := graph.MinMaxDegree(g)
	fmt.Printf("graph %s: n=%d m=%d degree=[%d,%d] connected=%v",
		g.Name(), g.N(), g.M(), min, max, graph.Connected(g))
	if g.N() <= 2048 {
		fmt.Printf(" diameter=%d", graph.Diameter(g))
	}
	fmt.Println()

	var tmix int
	if *exact {
		tmix, err = wcle.MixingTime(g, *tmax)
	} else {
		starts := []int{0, g.N() / 3, 2 * g.N() / 3}
		tmix, err = wcle.MixingTimeSampled(g, *tmax, starts)
	}
	if err != nil {
		fmt.Printf("tmix: %v\n", err)
	} else {
		fmt.Printf("tmix(1/2n) = %d\n", tmix)
	}

	lam, err := wcle.Lambda2(g)
	if err != nil {
		return err
	}
	lo, hi := wcle.CheegerBounds(lam)
	fmt.Printf("lambda2(lazy) = %.6f  spectral gap = %.6f\n", lam, 1-lam)
	fmt.Printf("conductance: Cheeger bounds [%.5f, %.5f]", lo, hi)
	if sweep, err := wcle.SweepConductance(g); err == nil {
		fmt.Printf("  sweep-cut <= %.5f", sweep)
	}
	if g.N() <= 22 {
		if phi, err := wcle.Conductance(g); err == nil {
			fmt.Printf("  exact = %.5f", phi)
		}
	}
	fmt.Println()

	p, err := core.ResolveParams(g.N(), wcle.DefaultConfig())
	if err != nil {
		return err
	}
	fmt.Printf("algorithm parameters at n=%d: contender p=%.5f walks=%d interThreshold=%d distinctThreshold=%d maxWalkLen=%d\n",
		g.N(), p.ContenderProb, p.Walks, p.InterThreshold, p.DistinctThreshold, p.MaxWalkLen)
	return nil
}

func build(family string, n, d int, alpha float64, seed int64) (*wcle.Graph, error) {
	if n < 1 || n > serve.MaxGraphNodes {
		return nil, fmt.Errorf("-n %d out of range [1, %d]", n, serve.MaxGraphNodes)
	}
	switch family {
	case "clique":
		return wcle.NewClique(n, seed)
	case "cycle":
		return wcle.NewCycle(n, seed)
	case "hypercube":
		dim := 0
		for 1<<dim < n {
			dim++
		}
		return wcle.NewHypercube(dim, seed)
	case "torus":
		side := 1
		for side*side < n {
			side++
		}
		return wcle.NewTorus(side, side, seed)
	case "rr":
		return wcle.NewRandomRegular(n, d, seed)
	case "lb":
		lb, err := wcle.NewLowerBoundGraph(n, alpha, seed)
		if err != nil {
			return nil, err
		}
		fmt.Printf("lower-bound construction: alpha=%.5g eps=%.4f cliqueSize=%d cliques=%d\n",
			lb.Alpha, lb.Epsilon, lb.CliqueSize, lb.NumCliques)
		return lb.Graph, nil
	case "dumbbell":
		db, err := wcle.NewDumbbell(n/2, d, seed)
		if err != nil {
			return nil, err
		}
		return db.Graph, nil
	default:
		return nil, fmt.Errorf("unknown graph family %q", family)
	}
}
