// Command figures regenerates every figure of the paper's evaluation and
// writes the rendered text plus CSV data.
//
// Usage:
//
//	figures [-fig all|2|3|4|5|6|7|8|e1|e2|e3|e4|e5|a1|a2|staticerr|devcross] [-out DIR] [-matmul-n N] [-quick] [-parallel N]
//	        [-cache-dir DIR] [-no-cache] [-no-ckpt-fork]
//	        [-static-prune] [-prune-topk K] [-prune-audit N] [-prune-seed S]
//
// Figures 2, 3, 7 and 8 are analytical (instant); figures 4, 5 and 6
// simulate baseline and accelerated programs in all four TCA modes on the
// cycle-level core (seconds to minutes depending on -matmul-n). Simulated
// sweeps fan out across -parallel workers (default: GOMAXPROCS); results
// are collected in input order, so the stdout artifacts are bit-identical
// at any worker count. Timing goes to stderr to keep stdout byte-stable.
//
// Every simulation routes through a scenario store (internal/scenario):
// identical runs within and across figures execute once and share the
// result. -cache-dir persists results as content-addressed JSON blobs so
// reruns skip unchanged simulations entirely; -no-cache disables the
// store. The store also forks sweep variants from shared warm-state
// checkpoints instead of re-simulating each warmup prefix;
// -no-ckpt-fork disables that path. The stdout artifact is
// byte-identical with the cache off, cold, or warm, and with
// checkpoint forking on or off — the store's hit/miss/fork report goes
// to stderr.
//
// -static-prune enables the StaticRank pre-pass on the Fig 4 and Fig 5
// sweeps: every point is first ranked by the analytical fast-path tier
// (internal/staticmodel, microseconds per config), and only the
// -prune-topk frontier plus a -prune-audit random audit sample is
// cycle-simulated. Off by default; stock runs are byte-identical to a
// run with the flag absent. The prune report goes to stderr.
// -fig staticerr (never part of "all") emits the static-vs-simulated
// accuracy table that justifies the oracle.
// -fig devcross (never part of "all") emits the device-engine mode
// crossover for the DAE and loop-accelerator families.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

func main() {
	// Deferred profile writers must run before the process exits, so the
	// exit code travels out of realMain instead of calling os.Exit there.
	os.Exit(realMain())
}

func realMain() int {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: "+strings.Join(experiments.IDs(), ", "))
		out      = flag.String("out", "", "directory for CSV output (default: none, stdout only)")
		matmulN  = flag.Int("matmul-n", 64, "matrix edge for Fig 6 (paper: 512)")
		quick    = flag.Bool("quick", false, "shrink simulated sweeps for a fast smoke run")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker count for simulated sweeps (1 = serial)")
		cacheDir = flag.String("cache-dir", "", "persist simulation results as content-addressed blobs in this directory")
		noCache  = flag.Bool("no-cache", false, "disable the scenario store (results are identical, just slower)")
		noFork   = flag.Bool("no-ckpt-fork", false, "disable warm-checkpoint forking in the store (results are identical, just slower)")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")

		staticPrune = flag.Bool("static-prune", false, "rank Fig 4/5 sweep points with the static model and simulate only the frontier")
		pruneTopK   = flag.Int("prune-topk", 4, "with -static-prune: simulate the K statically best-ranked points")
		pruneAudit  = flag.Int("prune-audit", 2, "with -static-prune: also simulate this many random pruned points as an audit sample")
		pruneSeed   = flag.Int64("prune-seed", 1, "with -static-prune: seed for the audit sample")
	)
	flag.Parse()

	var prune *experiments.StaticPruneConfig
	if *staticPrune {
		prune = &experiments.StaticPruneConfig{TopK: *pruneTopK, Audit: *pruneAudit, Seed: *pruneSeed}
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
			}
		}()
	}

	var store *scenario.Store
	if !*noCache {
		var err error
		store, err = scenario.NewStore(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			return 1
		}
		if *noFork {
			store.DisableCheckpointForking()
		}
	}

	start := time.Now()
	opts := experiments.Options{Store: store, Parallel: *parallel, Quick: *quick, MatMulN: *matmulN, Prune: prune}
	if err := run(*fig, *out, opts); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "figures: total %v (parallel=%d)\n",
		time.Since(start).Round(time.Millisecond), *parallel)
	if store != nil {
		fmt.Fprintln(os.Stderr, "figures:", store.Metrics())
	}
	return 0
}

// run regenerates the sections -fig selects, in table order. Each
// section's timing and static prune report go to stderr, keeping the
// stdout artifact byte-stable.
func run(fig, out string, o experiments.Options) error {
	secs, err := experiments.Select(fig)
	if err != nil {
		return err
	}
	for _, sec := range secs {
		start := time.Now()
		fmt.Printf("\n%s\n%s\n\n", sec.Title, strings.Repeat("=", len(sec.Title)))
		res, err := sec.Run(os.Stdout, o, fig)
		if err != nil {
			return err
		}
		if res.Prune != nil {
			fmt.Fprintln(os.Stderr, "figures:", strings.TrimSuffix(sec.CSV, ".csv"), res.Prune)
		}
		if out != "" && sec.CSV != "" {
			if err := os.MkdirAll(out, 0o755); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(out, sec.CSV), []byte(res.CSV), 0o644); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "figures: %v  %s\n", time.Since(start).Round(time.Millisecond), sec.Title)
	}
	return nil
}
