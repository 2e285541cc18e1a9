// Command benchpairs compares two revisions on the repository benchmark
// in alternating pairs and prints the comparison table.
//
// Usage, from inside the repository:
//
//	go run ./cmd/benchpairs -parent REV [-change REV] [-workloads a,b] [-pairs N] [-seed S]
//
// Each revision is exported with git archive into
// .bench_build/pairs/<commit>/, so no worktree is registered; a later
// comparison reuses the export and its build cache. For every
// workload, each pair runs BENCHMARK.json's command once in each export
// with --workload W --seed S --seconds <run_seconds> --trace 0; the
// parent runs first in even pairs and the change first in odd ones.
//
// For every end-to-end metric in BENCHMARK.json the table gives each
// side's median [q1–q3] over its runs (quartiles interpolate linearly
// between order statistics), the ratio of the medians (change over
// parent), in how many pairs the change was better (ties count for
// neither), and whether the medians differ by more than the parent's
// interquartile range. A second table gives each side's correct runs and
// its attempted and failed operations. Every run's values go to standard
// error as it finishes.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchmark is the part of BENCHMARK.json the comparison reads.
type benchmark struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

// metric is one end-to-end metric: its name and whether lower or higher
// values are better.
type metric struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

// result is the final JSON line one benchmark run prints.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// rev is one side of the comparison.
type rev struct {
	name   string // "parent" or "change"
	arg    string // the revision as given
	commit string
	dir    string // the export
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchpairs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	parentArg := fs.String("parent", "", "parent revision (required)")
	changeArg := fs.String("change", "HEAD", "changed revision")
	workloads := fs.String("workloads", "", "comma-separated workloads (default: every workload in BENCHMARK.json)")
	pairs := fs.Int("pairs", 10, "pairs of runs per workload")
	seed := fs.Int64("seed", 1, "benchmark seed of every run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parentArg == "" || *pairs < 1 || fs.NArg() > 0 {
		fs.Usage()
		return errors.New("-parent is required, -pairs must be positive, and no arguments may follow the flags")
	}

	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var b benchmark
	if err := json.Unmarshal(raw, &b); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(b.Command) == 0 {
		return errors.New("BENCHMARK.json names no command")
	}
	names, err := pickWorkloads(b, *workloads)
	if err != nil {
		return err
	}

	sides := []*rev{{name: "parent", arg: *parentArg}, {name: "change", arg: *changeArg}}
	for _, s := range sides {
		if s.commit, err = git(root, "rev-parse", "--verify", s.arg+"^{commit}"); err != nil {
			return err
		}
		s.dir = filepath.Join(root, ".bench_build", "pairs", s.commit)
		if err := export(root, s.commit, s.dir, stderr); err != nil {
			return err
		}
	}

	runs := map[string]map[string][]result{} // workload, side
	for _, w := range names {
		runs[w] = map[string][]result{}
		for p := 0; p < *pairs; p++ {
			order := sides
			if p%2 == 1 {
				order = []*rev{sides[1], sides[0]}
			}
			for _, s := range order {
				r, err := runOnce(b, s.dir, w, *seed, stderr)
				if err != nil {
					return fmt.Errorf("%s %s pair %d: %w", w, s.name, p+1, err)
				}
				runs[w][s.name] = append(runs[w][s.name], r)
				fmt.Fprintf(stderr, "benchpairs: %s pair %d/%d %s: correct=%v failed=%d/%d", w, p+1, *pairs, s.name, r.Correct, r.Failed, r.Attempted)
				for _, m := range b.EndToEnd {
					fmt.Fprintf(stderr, " %s=%g", m.Name, r.Metrics[m.Name].Value)
				}
				fmt.Fprintln(stderr)
			}
		}
	}

	fmt.Fprintf(stdout, "parent %.12s (%s), change %.12s (%s): %d pairs per workload, seed %d, run_seconds %g, alternating which side runs first; median [q1–q3]\n\n",
		sides[0].commit, sides[0].arg, sides[1].commit, sides[1].arg, *pairs, *seed, b.RunSeconds)
	fmt.Fprintln(stdout, "| workload | metric | parent | change | ratio | change better | gap > parent IQR |")
	fmt.Fprintln(stdout, "|---|---|---|---|---|---|---|")
	for _, w := range names {
		for _, m := range b.EndToEnd {
			pv, err := values(runs[w]["parent"], m.Name)
			if err != nil {
				return fmt.Errorf("%s parent: %w", w, err)
			}
			cv, err := values(runs[w]["change"], m.Name)
			if err != nil {
				return fmt.Errorf("%s change: %w", w, err)
			}
			fmt.Fprintln(stdout, formatRow(w, m, pv, cv))
		}
	}
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "| workload | side | correct | attempted | failed |")
	fmt.Fprintln(stdout, "|---|---|---|---|---|")
	for _, w := range names {
		for _, s := range sides {
			fmt.Fprintln(stdout, formatOutcome(w, s.name, runs[w][s.name]))
		}
	}
	return nil
}

// pickWorkloads returns the comma-separated list, each checked against
// BENCHMARK.json, or every workload it declares when list is empty.
func pickWorkloads(b benchmark, list string) ([]string, error) {
	known := map[string]bool{}
	var all []string
	for _, w := range b.Workloads {
		known[w.Name] = true
		all = append(all, w.Name)
	}
	if list == "" {
		return all, nil
	}
	names := strings.Split(list, ",")
	for _, w := range names {
		if !known[w] {
			return nil, fmt.Errorf("workload %q is not in BENCHMARK.json (%s)", w, strings.Join(all, ", "))
		}
	}
	return names, nil
}

// git runs git in dir and returns its trimmed standard output.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var errb bytes.Buffer
	cmd.Stderr = &errb
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(errb.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

// export makes dir hold the committed files of commit, piping git
// archive into tar. The files are extracted beside dir and renamed into
// place, so an existing dir is a complete export: it is reused, with the
// build cache earlier runs left in it.
func export(root, commit, dir string, stderr io.Writer) error {
	if _, err := os.Stat(dir); err == nil {
		return nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "archive", "--format=tar", commit)
	archive.Dir = root
	archive.Stderr = stderr
	tar := exec.Command("tar", "-x", "-C", tmp)
	tar.Stderr = stderr
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	tar.Stdin = pipe
	if err := tar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		_ = tar.Wait() // the archive error is the one to report
		return fmt.Errorf("git archive %s: %w", commit, err)
	}
	if err := tar.Wait(); err != nil {
		return fmt.Errorf("extracting %s: %w", commit, err)
	}
	return os.Rename(tmp, dir)
}

// runOnce runs the benchmark command in dir on one workload and parses
// its result line. The command's standard error passes through.
func runOnce(b benchmark, dir, workload string, seed int64, stderr io.Writer) (result, error) {
	args := append(append([]string(nil), b.Command[1:]...),
		"--workload", workload,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(b.RunSeconds, 'g', -1, 64),
		"--trace", "0")
	cmd := exec.Command(b.Command[0], args...)
	cmd.Dir = dir
	// The export sits inside this repository's work tree, where the go
	// command would stamp the binary with this checkout's commit.
	cmd.Env = append(os.Environ(), "GOFLAGS="+strings.TrimSpace(os.Getenv("GOFLAGS")+" -buildvcs=false"))
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", strings.Join(cmd.Args, " "), err)
	}
	return parseResult(out)
}

// parseResult decodes the last non-empty line of a run's standard
// output, the benchmark's result object.
func parseResult(out []byte) (result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return result{}, fmt.Errorf("result line %q: %w", last, err)
	}
	if r.Metrics == nil {
		return result{}, fmt.Errorf("result line %q has no metrics", last)
	}
	return r, nil
}

// values collects one metric from every run.
func values(rs []result, name string) ([]float64, error) {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil, fmt.Errorf("run %d reports no %s", i+1, name)
		}
		xs[i] = m.Value
	}
	return xs, nil
}

// quantile returns the p-quantile of xs, interpolating linearly between
// the order statistics at ranks floor and ceil of p*(n-1).
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// formatRow is one table row: each side's median [q1–q3], the ratio of
// the medians, the pairs the change won by the metric's direction, and
// whether the median gap exceeds the parent's interquartile range.
// parent[i] and change[i] are pair i.
func formatRow(workload string, m metric, parent, change []float64) string {
	pm, cm := quantile(parent, 0.5), quantile(change, 0.5)
	wins := 0
	for i := range parent {
		if d := change[i] - parent[i]; (m.Better == "higher" && d > 0) || (m.Better != "higher" && d < 0) {
			wins++
		}
	}
	gap := "no"
	if math.Abs(cm-pm) > quantile(parent, 0.75)-quantile(parent, 0.25) {
		gap = "yes"
	}
	return fmt.Sprintf("| %s | %s | %s | %s | %.2f | %d/%d | %s |",
		workload, m.Name, spread(parent), spread(change), cm/pm, wins, len(parent), gap)
}

// spread formats a sample as median [q1–q3] to four significant digits.
func spread(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g–%.4g]", quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75))
}

// formatOutcome is one row of the outcome table: the runs that reported
// correct, and the operations attempted and failed over all runs.
func formatOutcome(workload, side string, rs []result) string {
	correct := 0
	var attempted, failed int64
	for _, r := range rs {
		if r.Correct {
			correct++
		}
		attempted += r.Attempted
		failed += r.Failed
	}
	return fmt.Sprintf("| %s | %s | %d/%d | %d | %d |", workload, side, correct, len(rs), attempted, failed)
}
