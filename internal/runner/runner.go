// Package runner is the parallel experiment engine: a generic worker pool
// that fans independent jobs across goroutines while keeping the output
// indistinguishable from a serial loop.
//
// Every validation artifact in this repository is a sweep of independent
// (workload x mode x sweep-point) simulations — each one deterministic in
// its seed and sharing no mutable state with its siblings (DESIGN.md).
// That makes the sweeps embarrassingly parallel, exactly like batching
// isolated gem5 runs. Map exploits this: jobs execute concurrently, but
//
//   - results are collected into a slice indexed by input position, so the
//     caller observes them in input order regardless of completion order;
//   - each job computes only from its own inputs (no cross-job reads, no
//     reductions inside workers), so every float and every string a job
//     produces is bit-identical to what the serial loop would produce;
//   - the first error (lowest job index) wins deterministically, and the
//     shared context is cancelled promptly so in-flight siblings can stop.
//
// Map also returns a Report of per-job wall-clock times. No caller reads
// it today; host timing stays in this package, off the artifacts.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Parallelism resolves a requested worker count: values <= 0 select
// GOMAXPROCS, the engine-wide default.
func Parallelism(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// JobTiming is the measured wall-clock of one job.
type JobTiming struct {
	Index   int
	Elapsed time.Duration
}

// Report describes one Map call for observability: how wide it ran, how
// long the whole call took, and how long each job took.
type Report struct {
	// Parallel is the worker count actually used (after clamping to the
	// job count).
	Parallel int
	// Wall is the wall-clock of the whole Map call.
	Wall time.Duration
	// Jobs holds per-job timings in input order. Jobs skipped after a
	// cancellation keep a zero Elapsed.
	Jobs []JobTiming
}

// Work returns the summed job time — the serial-equivalent cost.
func (r *Report) Work() time.Duration {
	var sum time.Duration
	for _, j := range r.Jobs {
		sum += j.Elapsed
	}
	return sum
}

// Overlap returns Work/Wall, the achieved concurrency (1.0 = serial).
func (r *Report) Overlap() float64 {
	if r.Wall <= 0 {
		return 1
	}
	return float64(r.Work()) / float64(r.Wall)
}

// Slowest returns the longest job timing (zero value when empty).
func (r *Report) Slowest() JobTiming {
	var worst JobTiming
	for _, j := range r.Jobs {
		if j.Elapsed > worst.Elapsed {
			worst = j
		}
	}
	return worst
}

// String summarizes the report in one line.
func (r *Report) String() string {
	s := r.Slowest()
	return fmt.Sprintf("%d jobs on %d workers: wall %v, work %v (%.1fx overlap), slowest job #%d %v",
		len(r.Jobs), r.Parallel, r.Wall.Round(time.Millisecond), r.Work().Round(time.Millisecond),
		r.Overlap(), s.Index, s.Elapsed.Round(time.Millisecond))
}

// Map runs fn over jobs on up to parallel goroutines (<= 0 selects
// GOMAXPROCS) and returns the results in input order. Jobs must be
// independent: fn may not mutate state shared with other jobs. On error,
// the context passed to in-flight jobs is cancelled, no further jobs
// start, and the lowest-index error is returned — so the reported error
// does not depend on goroutine scheduling. parallel == 1 runs the jobs in
// the calling goroutine with no pool at all; any wider setting produces
// byte-identical results because jobs never read each other's output.
func Map[T, R any](ctx context.Context, parallel int, jobs []T, fn func(ctx context.Context, i int, job T) (R, error)) ([]R, *Report, error) {
	start := time.Now()
	parallel = Parallelism(parallel)
	if parallel > len(jobs) {
		parallel = len(jobs)
	}
	report := &Report{Parallel: parallel, Jobs: make([]JobTiming, len(jobs))}
	for i := range report.Jobs {
		report.Jobs[i].Index = i
	}
	results := make([]R, len(jobs))
	if len(jobs) == 0 {
		report.Wall = time.Since(start)
		return results, report, ctx.Err()
	}

	if parallel == 1 {
		for i, job := range jobs {
			if err := ctx.Err(); err != nil {
				report.Wall = time.Since(start)
				return nil, report, err
			}
			t0 := time.Now()
			res, err := fn(ctx, i, job)
			report.Jobs[i].Elapsed = time.Since(t0)
			if err != nil {
				report.Wall = time.Since(start)
				return nil, report, err
			}
			results[i] = res
		}
		report.Wall = time.Since(start)
		return results, report, nil
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(jobs))
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(jobs) || wctx.Err() != nil {
					return
				}
				t0 := time.Now()
				res, err := fn(wctx, i, jobs[i])
				report.Jobs[i].Elapsed = time.Since(t0)
				if err != nil {
					errs[i] = err
					cancel()
					return
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	report.Wall = time.Since(start)
	// Lowest-index error wins; a sibling that failed only because the
	// cancellation reached it must not mask the original cause.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if !errors.Is(err, context.Canceled) {
			return nil, report, err
		}
	}
	if firstErr != nil {
		return nil, report, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, report, err
	}
	return results, report, nil
}

// Sweep runs fn over the index range [0, n) — the common shape of a
// figure sweep, where job i derives everything it needs (seed, sweep
// value) from its position.
func Sweep[R any](ctx context.Context, parallel, n int, fn func(ctx context.Context, i int) (R, error)) ([]R, *Report, error) {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return Map(ctx, parallel, idx, func(ctx context.Context, i, _ int) (R, error) {
		return fn(ctx, i)
	})
}
