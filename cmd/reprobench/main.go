// Command reprobench is the repository's benchmark. It runs one
// workload against the code as it stands, checks every output, and
// prints each metric with its unit; the last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 6.1, "unit": "s"}, ...}}
//
// Workloads: sweep-cold regenerates the `figures -fig all` artifact into
// an empty disk-backed store plus half a warmup-heavy heap design-space
// sweep; sweep-warm replays the artifact from a filled blob directory
// and forks the other half off the checkpoint blob; fleet drives an
// in-process scenariod with two closed-loop clients. With -trace 0 the
// metrics are the end-to-end set; -trace 1 reports the per-layer set
// from spans and a CPU profile bucketed by layer. README.md beside this
// file documents each metric and workload.
//
// Usage, from the repository root:
//
//	bash cmd/reprobench/run.sh -workload sweep-cold|sweep-warm|fleet [-seed N] [-seconds S] [-trace 0|1]
//
// run.sh builds the command into .bench_build and runs it; stores and
// traces live under .bench_build too.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// buildDir holds everything the benchmark writes, under the directory it
// runs in.
const buildDir = ".bench_build"

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reprobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep-cold, sweep-warm or fleet")
	seed := fs.Int64("seed", 1, "seed of the heap design-space sweep and the fleet stream")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "reprobench: -trace must be 0 or 1")
		return 2
	}
	if _, err := newWorkload(config{workload: *name}); err != nil {
		fmt.Fprintln(stderr, "reprobench:", err)
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "reprobench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(buildDir, "reprobench-*")
	if err != nil {
		fmt.Fprintln(stderr, "reprobench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := config{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		parallel: min(runtime.GOMAXPROCS(0), runtime.NumCPU()),
		dir:      dir,
		artifact: "figures_output.txt",
		traceOut: filepath.Join(buildDir, fmt.Sprintf("reprobench-%s-seed%d-trace.json", *name, *seed)),
	}
	prov := provenance{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
	res, err := run(cfg, prov, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "reprobench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "reprobench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// commit is the VCS revision the binary was built from, "+dirty" when
// the tree had local changes, or "unknown" outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}
