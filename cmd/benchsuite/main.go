// Command benchsuite runs the paper-reproduction suite (E1..E19, see
// DESIGN.md) on a parallel worker pool and renders the aggregate as the
// Markdown recorded in EXPERIMENTS.md.
//
// Trials fan out across -workers goroutines with deterministic per-trial
// seeds: the same configuration produces byte-identical -json output
// whatever the worker count. With -checkpoint, partial results are
// persisted as JSON and an interrupted suite resumes where it stopped.
//
// Examples:
//
//	benchsuite -quick                              # fast smoke regime, stdout
//	benchsuite -render EXPERIMENTS.md              # the full regime, rendered to a file
//	benchsuite -experiments E1,E8 -trials 4        # a subset, 4 trials per point
//	benchsuite -workers 16 -json results.json      # raw trial metrics as JSON
//	benchsuite -checkpoint ckpt.json               # resumable run
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"wcle/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		quick   = flag.Bool("quick", false, "small sizes and trial counts")
		seed    = flag.Int64("seed", 42, "suite seed")
		exps    = flag.String("experiments", "", "comma-separated experiment ids (default: all)")
		trials  = flag.Int("trials", 0, "override every experiment's per-point trial count (0 = spec defaults)")
		maxN    = flag.Int("n", 0, "cap graph sizes at n (0 = regime defaults)")
		workers = flag.Int("workers", runtime.NumCPU(), "worker-pool size for parallel trials")
		jsonOut = flag.String("json", "", "write raw trial metrics as canonical JSON to this file")
		render  = flag.String("render", "", "render the experiment tables as Markdown to this file (\"-\" = stdout)")
		ckpt    = flag.String("checkpoint", "", "checkpoint file: loaded to resume, rewritten during the run")
	)
	flag.Parse()

	var ids []string
	if *exps != "" {
		ids = strings.Split(*exps, ",")
	}
	cfg := experiments.SuiteConfig{Seed: *seed, Quick: *quick, Trials: *trials, MaxN: *maxN}
	h := &experiments.Harness{
		Config:         cfg,
		Workers:        *workers,
		CheckpointPath: *ckpt,
		Progress: func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "benchsuite: "+format+"\n", args...)
		},
	}

	start := time.Now()
	res, err := h.Run(ids)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchsuite: suite done in %v on %d workers\n",
		time.Since(start).Round(time.Millisecond), *workers)

	if *jsonOut != "" {
		b, err := res.CanonicalJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, b, 0o644); err != nil {
			return err
		}
	}

	w := os.Stdout
	if *render != "" && *render != "-" {
		f, err := os.Create(*render)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "benchsuite: close:", cerr)
			}
		}()
		w = f
	}
	return experiments.RenderSuite(w, cfg, ids, res, gitRevision())
}

// gitRevision pins the rendered document to the working tree's commit.
func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	status, err := exec.Command("git", "status", "--porcelain").Output()
	if err != nil {
		return rev
	}
	for _, line := range strings.Split(string(status), "\n") {
		if len(line) < 4 {
			continue
		}
		// Only changes that enter the build (Go sources or module files)
		// make the pinned revision a lie — not docs or notes, and in
		// particular not the EXPERIMENTS.md this very render rewrites.
		path := strings.TrimSpace(line[3:])
		if strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod") || strings.HasSuffix(path, "go.sum") {
			return rev + "-dirty"
		}
	}
	return rev
}
