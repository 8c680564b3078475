// Lower-bound tour (Sections 4 and 5): build the clique-of-cliques graph
// G(n, alpha) of Figures 1-2, verify its conductance is Theta(alpha), watch
// a message-budgeted election fail, and reproduce the Theorem 28 dumbbell
// effect where the wrong n yields two leaders.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"wcle"
	"wcle/internal/core"
	"wcle/internal/graph"
	"wcle/internal/lowerbound"
)

func main() {
	alpha := 1.0 / 196
	lb, err := wcle.NewLowerBoundGraph(1024, alpha, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("G(n, alpha): n=%d m=%d cliques=%d of size %d, eps=%.3f (alpha=%.4g)\n",
		lb.N(), lb.M(), lb.NumCliques, lb.CliqueSize, lb.Epsilon, alpha)

	// Lemma 16: the cut around one clique certifies phi = Theta(alpha).
	inSet := make([]bool, lb.N())
	for _, v := range lb.Cliques[0] {
		inSet[v] = true
	}
	phi := graph.CutConductance(lb.Graph, inSet)
	fmt.Printf("clique-cut conductance: %.5f (phi/alpha = %.2f — Lemma 16's Theta(alpha))\n\n", phi, phi/alpha)

	// Lemma 18: discovering an inter-clique edge by port probing costs
	// Theta(1/alpha) messages.
	rng := rand.New(rand.NewSource(2))
	ports := lb.CliqueSize * (lb.CliqueSize - 1)
	var sum float64
	trials := 2000
	for i := 0; i < trials; i++ {
		sum += float64(lowerbound.ProbeFirstInterClique(ports, 4, rng))
	}
	fmt.Printf("Lemma 18 port probing: mean %.0f messages before the first inter-clique edge (1/alpha = %.0f)\n\n",
		sum/float64(trials), 1/alpha)

	// Theorem 15's regime: a budgeted election cannot succeed.
	tracker := lowerbound.NewCGTracker(lb)
	cfg := core.DefaultConfig()
	cfg.MaxWalkLen = 64
	res, err := core.Run(lb.Graph, cfg, wcle.Options{Seed: 3, Budget: int64(8 / alpha), Observer: tracker})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("budgeted election (budget 8/alpha = %d messages):\n", int64(8/alpha))
	fmt.Printf("   leaders: %d, CG edges discovered: %d of %d super edges, Disj holds: %v\n\n",
		len(res.Leaders), tracker.CGEdges(), lb.Super.M(), tracker.DisjHolds())

	// Theorem 28: on a dumbbell of cliques, believing n = half elects one
	// leader per side.
	db, err := wcle.NewDumbbellCliques(24, 4)
	if err != nil {
		log.Fatal(err)
	}
	bridge := map[int]bool{
		db.Bridges[0].U: true, db.Bridges[0].V: true,
		db.Bridges[1].U: true, db.Bridges[1].V: true,
	}
	var contenders []int
	for v := 0; v < db.N(); v++ {
		if !bridge[v] {
			contenders = append(contenders, v)
		}
	}
	dcfg := core.DefaultConfig()
	dcfg.AssumedN = db.Half
	dcfg.DisableDistinctness = true
	dcfg.ForcedContenders = contenders
	bt := lowerbound.NewBridgeTracker(db)
	dres, err := core.Run(db.Graph, dcfg, wcle.Options{Seed: 5, Observer: bt})
	if err != nil {
		log.Fatal(err)
	}
	sides := []int{0, 0}
	for _, l := range dres.Leaders {
		sides[db.SideOf[l]]++
	}
	fmt.Printf("Theorem 28 dumbbell (nodes believe n=%d, true n=%d):\n", db.Half, db.N())
	fmt.Printf("   leaders: %d (left %d, right %d), bridge crossings: %d\n",
		len(dres.Leaders), sides[0], sides[1], bt.Crossings)
	fmt.Println("   two leaders with zero crossings is Observation 31's indistinguishability made concrete.")
}
