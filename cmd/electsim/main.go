// Command electsim runs one leader election on a chosen graph family and
// prints the outcome and model-level costs. -algo selects the election
// backend from the algo registry: gilbertrs18 (the paper's algorithm, the
// default), floodmax (the Omega(m) flooding baseline), or kpprt (the
// sublinear candidate-sampling election of Kutten et al.).
//
// Examples:
//
//	electsim -graph rr -n 256 -d 8 -seed 7
//	electsim -graph clique -n 128 -explicit
//	electsim -graph clique -n 256 -algo kpprt
//	electsim -graph clique -n 256 -algo floodmax
//	electsim -graph lb -n 1024 -alpha 0.005
//	electsim -graph rr -n 128 -drop 0.05
//	electsim -graph rr -n 128 -crash 0.2@1 -delay 3
//	electsim -graph rr -n 128 -byz 0.15
//	electsim -protocol pushpull -graph rr -n 128 -rumor 7 -byz 1,9 -defend
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"wcle"
	"wcle/internal/algo"
	"wcle/internal/core"
	"wcle/internal/obs"
	"wcle/internal/protocol"
	"wcle/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "electsim:", err)
		os.Exit(1)
	}
}

func buildGraph(family string, n, d int, alpha float64, seed int64) (*wcle.Graph, error) {
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

func run() error {
	var (
		family   = flag.String("graph", "rr", "graph family: clique|cycle|hypercube|torus|rr|lb|dumbbell")
		algoName = flag.String("algo", wcle.DefaultAlgorithm(),
			fmt.Sprintf("election backend: %s", strings.Join(wcle.Algorithms(), "|")))
		protoName = flag.String("protocol", "",
			fmt.Sprintf("run any registered protocol through the generic engine (overrides -algo): %s", strings.Join(wcle.Protocols(), "|")))
		root     = flag.Int("root", 0, "protocol mode: source/root node")
		rumor    = flag.Uint64("rumor", 0, "protocol mode: pushpull rumor id (0 = 1)")
		op       = flag.String("op", "", "protocol mode: aggregate operation, max|sum (\"\" = max)")
		horizon  = flag.Int("horizon", 0, "floodmax decision round (0 = n)")
		hops     = flag.Int("hops", 0, "kpprt referee-sampling walk length (0 = auto)")
		n        = flag.Int("n", 128, "target node count")
		d        = flag.Int("d", 8, "degree for rr/dumbbell")
		alpha    = flag.Float64("alpha", 1.0/196, "conductance scale for lb")
		seed     = flag.Int64("seed", 1, "run seed")
		c1       = flag.Float64("c1", 0, "override c1 (0 = default)")
		c2       = flag.Float64("c2", 0, "override c2 (0 = default)")
		large    = flag.Bool("large", false, "use O(log^3 n)-bit messages (Lemma 12 mode)")
		fixed    = flag.Int("fixed-tu", 0, "known-tmix baseline: single phase of this walk length")
		budget   = flag.Int64("budget", 0, "message budget (0 = unlimited)")
		explicit = flag.Bool("explicit", false, "append the Corollary 14 push-pull broadcast")
		phases   = flag.Bool("phases", false, "print a per-phase message breakdown")
		drop     = flag.Float64("drop", 0, "fault plane: lose each send with this probability")
		delay    = flag.Int("delay", 0, "fault plane: uniform extra delivery delay in [0, delay] rounds")
		crash    = flag.String("crash", "", "fault plane: \"frac@round\" (e.g. 0.2@1) or \"node:round,...\"")
		byz      = flag.String("byz", "", "fault plane: Byzantine adversary, a fraction (\"0.15\") or pinned node list (\"1,9\")")
		defend   = flag.Bool("defend", false, "protocol mode: wrap the protocol in committee-sampled validation (engine.WithCommittee)")
		traceOut = flag.String("trace", "", "write a structured trace of the run (NDJSON, electtrace-readable) to this file")
	)
	flag.Parse()

	// -trace attaches a strictly observational tracer: the run's outcome
	// and costs are byte-identical with and without it.
	var tr *obs.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		ws := obs.NewWriterSink(f)
		tr = obs.New(ws, 0)
		defer func() {
			if err := ws.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "electsim: trace flush: %v\n", err)
			}
			f.Close()
		}()
	}

	// name is the protocol that runs through the generic engine; empty
	// means the paper's algorithm through its typed entry points.
	name := *protoName
	if name == "" {
		if *defend {
			// The committee wrapper lives in the engine path; the election
			// backends are all engine-registered, so the defended form is
			// one flag away.
			return fmt.Errorf("-defend requires protocol mode: rerun with -protocol %s", *algoName)
		}
		if !algo.Known(*algoName) {
			// Fail before any graph work, naming what would have worked:
			// the registry knows its backends, so the error should too.
			return fmt.Errorf("unknown algorithm %q; registered backends: %s",
				*algoName, strings.Join(wcle.Algorithms(), ", "))
		}
		if *algoName != wcle.DefaultAlgorithm() {
			// Non-default backends run through the generic engine, as
			// -protocol does; the paper-specific knobs stay with the
			// default algorithm rather than being silently ignored.
			if *explicit || *phases || *fixed > 0 || *large || *c1 > 0 || *c2 > 0 {
				return fmt.Errorf("-explicit/-phases/-fixed-tu/-large/-c1/-c2 only apply to %s", wcle.DefaultAlgorithm())
			}
			name = *algoName
		}
	}
	g, err := buildGraph(*family, *n, *d, *alpha, *seed)
	if err != nil {
		return err
	}
	fault, err := buildFault(*drop, *delay, *crash, *byz)
	if err != nil {
		return err
	}
	opts := wcle.Options{Seed: *seed, Budget: *budget, Fault: fault, Tracer: tr}
	if name != "" {
		return runProtocol(g, name, wcle.ProtocolConfig{
			Source:  *root,
			Root:    *root,
			Rumor:   *rumor,
			Horizon: *horizon,
			Op:      *op,
			Hops:    *hops,
			Defend:  *defend,
		}, opts)
	}

	cfg := wcle.DefaultConfig()
	if *c1 > 0 {
		cfg.C1 = *c1
	}
	if *c2 > 0 {
		cfg.C2 = *c2
	}
	if *large {
		cfg.Mode = protocol.ModeLarge
	}
	if *fixed > 0 {
		cfg.FixedWalkLen = *fixed
	}
	faults := attachFaultLog(&opts)
	var phaseObs *core.PhaseObserver
	if *phases {
		phaseObs, err = core.NewPhaseObserver(g.N(), cfg)
		if err != nil {
			return err
		}
		opts.Observer = phaseObs
	}

	fmt.Printf("graph %s: n=%d m=%d\n", g.Name(), g.N(), g.M())
	if *explicit {
		res, err := wcle.ElectExplicit(g, cfg, opts, 0)
		if err != nil {
			return err
		}
		printResult(res.Implicit)
		if res.Broadcast != nil {
			fmt.Printf("broadcast: informed=%d/%d rounds=%d messages=%d\n",
				res.Broadcast.Informed, g.N(), res.Broadcast.CompletionRound, res.Broadcast.Metrics.Messages)
		}
		fmt.Printf("explicit total messages: %d\n", res.TotalMessages)
		return nil
	}
	res, err := wcle.Elect(g, cfg, opts)
	if err != nil {
		return err
	}
	printResult(res)
	faults.print()
	if phaseObs != nil {
		fmt.Println("per-phase breakdown (tu doubles each phase):")
		for p := 0; p < phaseObs.UsedPhases(); p++ {
			fmt.Printf("   phase %d (tu=%d): %d messages, %d bits, kinds %v\n",
				p, 1<<p, phaseObs.Messages[p], phaseObs.Bits[p], phaseObs.Kinds[p])
		}
	}
	return nil
}

// runProtocol executes any registered protocol through the generic engine
// and prints the protocol-independent report: the output-slot summary, the
// cost accounting, and (when the protocol is an election backend) the
// election outcome.
func runProtocol(g *wcle.Graph, name string, cfg wcle.ProtocolConfig, opts wcle.AlgorithmOptions) error {
	faults := attachFaultLog(&opts)
	rep, err := wcle.Run(name, g, cfg, opts)
	if err != nil {
		return err
	}
	res := rep.Result
	fmt.Printf("graph %s: n=%d m=%d\n", g.Name(), g.N(), g.M())
	fmt.Printf("protocol: %s slots=%v\n", res.Protocol, res.Slots)
	fmt.Printf("rounds=%d messages=%d bits=%d dropped=%d lost=%d delayed=%d mutated=%d\n",
		res.Rounds, res.Metrics.Messages, res.Metrics.Bits, res.Metrics.Dropped,
		res.Metrics.FaultDrops, res.Metrics.Delayed, res.Metrics.Mutated)
	// One line per slot: the [min, max] envelope of that output column.
	for s, slot := range res.Slots {
		lo, hi := res.Outputs[0][s], res.Outputs[0][s]
		for _, o := range res.Outputs {
			if o[s] < lo {
				lo = o[s]
			}
			if o[s] > hi {
				hi = o[s]
			}
		}
		fmt.Printf("output %-12s min=%d max=%d\n", slot, lo, hi)
	}
	var total, maxNode int64
	for _, c := range res.PerNodeMessages {
		total += c
		if c > maxNode {
			maxNode = c
		}
	}
	fmt.Printf("per-node sends: total=%d max=%d\n", total, maxNode)
	if rep.Election != nil {
		out := rep.Election
		fmt.Printf("election outcome: leaders=%v success=%v contenders=%d leaderRound=%d\n",
			out.Leaders, out.Success, out.Contenders, out.LeaderRound)
	}
	faults.print()
	return nil
}

// attachFaultLog records a faulty run's interventions: it returns nil,
// and attaches nothing, when opts carries no fault plane.
func attachFaultLog(opts *wcle.Options) *FaultLog {
	if opts.Fault == nil {
		return nil
	}
	faults := &FaultLog{}
	opts.FaultObserver = faults
	return faults
}

// print writes the run's fault tally line; a nil log prints nothing.
func (l *FaultLog) print() {
	if l != nil {
		fmt.Printf("faults: lost=%d delayed=%d crashed=%d mutated=%d\n", l.Drops, l.Delays, l.Crashes, l.Mutations)
	}
}

// buildFault assembles the run's fault plane from the CLI flags.
func buildFault(drop float64, delay int, crash, byz string) (wcle.FaultPlane, error) {
	var planes []wcle.FaultPlane
	if drop > 0 {
		planes = append(planes, &wcle.Drop{P: drop})
	}
	if delay > 0 {
		planes = append(planes, &wcle.Delay{Max: delay})
	}
	if crash != "" {
		plane, err := parseCrash(crash)
		if err != nil {
			return nil, err
		}
		planes = append(planes, plane)
	}
	if byz != "" {
		plane, err := parseByz(byz)
		if err != nil {
			return nil, err
		}
		planes = append(planes, plane)
	}
	return wcle.ComposeFaults(planes...), nil
}

// parseByz accepts a fraction in (0, 1) — a seed-sampled adversary
// minority, recognized by its decimal point — or a comma list of node
// indices, a pinned adversary set.
func parseByz(spec string) (wcle.FaultPlane, error) {
	if strings.Contains(spec, ".") {
		f, err := strconv.ParseFloat(spec, 64)
		if err != nil || f <= 0 || f >= 1 {
			return nil, fmt.Errorf("bad byzantine fraction %q (want 0 < frac < 1, e.g. 0.15)", spec)
		}
		return &wcle.Byzantine{Frac: f}, nil
	}
	var nodes []int
	for _, s := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad byzantine node %q (want a fraction like 0.15 or a node list \"1,9\")", s)
		}
		nodes = append(nodes, v)
	}
	return &wcle.Byzantine{Nodes: nodes}, nil
}

// parseCrash accepts "frac@round" (a sampled crash set) or a comma list of
// "node:round" pairs (an explicit schedule).
func parseCrash(spec string) (wcle.FaultPlane, error) {
	if frac, roundStr, ok := strings.Cut(spec, "@"); ok {
		f, err := strconv.ParseFloat(frac, 64)
		if err != nil || f <= 0 || f >= 1 {
			return nil, fmt.Errorf("bad crash fraction %q (want 0 < frac < 1)", frac)
		}
		r, err := strconv.Atoi(roundStr)
		if err != nil || r < 0 {
			return nil, fmt.Errorf("bad crash round %q", roundStr)
		}
		return &wcle.CrashSample{Frac: f, Round: r}, nil
	}
	at := make(map[int]int)
	for _, pair := range strings.Split(spec, ",") {
		nodeStr, roundStr, ok := strings.Cut(strings.TrimSpace(pair), ":")
		if !ok {
			return nil, fmt.Errorf("bad crash entry %q (want node:round or frac@round)", pair)
		}
		node, err1 := strconv.Atoi(nodeStr)
		round, err2 := strconv.Atoi(roundStr)
		if err1 != nil || err2 != nil || node < 0 || round < 0 {
			return nil, fmt.Errorf("bad crash entry %q", pair)
		}
		at[node] = round
	}
	return &wcle.Crash{At: at}, nil
}

func printResult(res *wcle.Result) {
	fmt.Printf("contenders=%d (p=%.4f, walks=%d, thresholds inter=%d distinct=%d)\n",
		len(res.Contenders), res.ContenderProb, res.Walks, res.InterThreshold, res.DistinctThreshold)
	fmt.Printf("outcome: leaders=%v success=%v stopped=%d suppressed=%d failed=%d\n",
		res.Leaders, res.Success, len(res.Stopped), len(res.Suppressed), len(res.Failed))
	fmt.Printf("phases=%d leaderRound=%d totalRounds=%d\n", res.PhasesUsed, res.LeaderRound, res.Rounds)
	fmt.Printf("messages=%d bits=%d dropped=%d lost=%d delayed=%d mutated=%d byKind=%v\n",
		res.Metrics.Messages, res.Metrics.Bits, res.Metrics.Dropped,
		res.Metrics.FaultDrops, res.Metrics.Delayed, res.Metrics.Mutated, res.Metrics.ByKind)
}
