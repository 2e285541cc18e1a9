package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrdersResults checks that results land in input order even when
// completion order is scrambled.
func TestMapOrdersResults(t *testing.T) {
	jobs := []int{8, 1, 5, 0, 3, 7, 2, 6, 4}
	for _, parallel := range []int{1, 2, 4, 16} {
		got, rep, err := Map(context.Background(), parallel, jobs,
			func(_ context.Context, i, job int) (string, error) {
				// Later-submitted jobs finish first.
				time.Sleep(time.Duration(len(jobs)-i) * time.Millisecond)
				return fmt.Sprintf("%d:%d", i, job), nil
			})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i, job := range jobs {
			if want := fmt.Sprintf("%d:%d", i, job); got[i] != want {
				t.Errorf("parallel=%d: result[%d] = %q, want %q", parallel, i, got[i], want)
			}
		}
		if len(rep.Jobs) != len(jobs) {
			t.Errorf("parallel=%d: report has %d jobs, want %d", parallel, len(rep.Jobs), len(jobs))
		}
	}
}

// TestMapMatchesSerial checks the determinism contract: any parallelism
// yields exactly the serial results.
func TestMapMatchesSerial(t *testing.T) {
	jobs := make([]int, 64)
	for i := range jobs {
		jobs[i] = i * 31
	}
	fn := func(_ context.Context, i, job int) (float64, error) {
		x := float64(job)
		for k := 0; k < 100; k++ {
			x = x*1.0000001 + float64(i)
		}
		return x, nil
	}
	serial, _, err := Map(context.Background(), 1, jobs, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{2, 8, 64} {
		par, _, err := Map(context.Background(), parallel, jobs, fn)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if serial[i] != par[i] {
				t.Fatalf("parallel=%d: result[%d] = %v, want %v (bit-exact)", parallel, i, par[i], serial[i])
			}
		}
	}
}

// TestMapFirstErrorWins checks that the lowest-index error is reported
// regardless of which worker hit an error first, and that later jobs are
// not started after cancellation.
func TestMapFirstErrorWins(t *testing.T) {
	errA := errors.New("job 2 failed")
	errB := errors.New("job 5 failed")
	var started atomic.Int64
	_, _, err := Map(context.Background(), 2, make([]int, 100),
		func(_ context.Context, i, _ int) (int, error) {
			started.Add(1)
			switch i {
			case 2:
				time.Sleep(20 * time.Millisecond) // loses the race...
				return 0, errA
			case 5:
				return 0, errB // ...but still wins the report
			}
			time.Sleep(time.Millisecond)
			return i, nil
		})
	if !errors.Is(err, errA) {
		t.Fatalf("got error %v, want lowest-index error %v", err, errA)
	}
	if n := started.Load(); n > 20 {
		t.Errorf("%d jobs started after early failure; cancellation not prompt", n)
	}
}

// TestMapCancelDoesNotMaskError checks that a sibling failing with the
// cancellation error does not hide the real cause.
func TestMapCancelDoesNotMaskError(t *testing.T) {
	real := errors.New("the real failure")
	_, _, err := Map(context.Background(), 2, []int{0, 1},
		func(ctx context.Context, i, _ int) (int, error) {
			if i == 1 {
				time.Sleep(5 * time.Millisecond)
				return 0, real
			}
			<-ctx.Done() // job 0 aborts only because job 1 failed
			return 0, ctx.Err()
		})
	if !errors.Is(err, real) {
		t.Fatalf("got %v, want %v", err, real)
	}
}

// TestMapContextCancellation checks that an already-cancelled context stops
// the serial path immediately.
func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	_, _, err := Map(ctx, 1, []int{1, 2, 3}, func(context.Context, int, int) (int, error) {
		ran++
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Errorf("%d jobs ran under a cancelled context", ran)
	}
}

// TestSweep checks the index-range helper.
func TestSweep(t *testing.T) {
	got, rep, err := Sweep(context.Background(), 4, 10, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i*i {
			t.Errorf("sweep[%d] = %d, want %d", i, got[i], i*i)
		}
	}
	if rep.Parallel > 10 {
		t.Errorf("parallel %d not clamped to job count", rep.Parallel)
	}
}

// TestMapEmpty checks the zero-job edge.
func TestMapEmpty(t *testing.T) {
	res, rep, err := Map(context.Background(), 4, nil, func(context.Context, int, int) (int, error) {
		return 0, nil
	})
	if err != nil || len(res) != 0 || len(rep.Jobs) != 0 {
		t.Fatalf("empty map: res=%v rep=%v err=%v", res, rep, err)
	}
}

// TestParallelism checks the default resolution.
func TestParallelism(t *testing.T) {
	if Parallelism(3) != 3 {
		t.Error("explicit parallelism not respected")
	}
	if Parallelism(0) < 1 || Parallelism(-1) < 1 {
		t.Error("defaulted parallelism must be >= 1")
	}
}

// TestReport checks the observability surface. Map guarantees one
// timing per job in input order, each at least its job's sleep, and a
// wall at least the slowest job; which job measures slowest depends on
// scheduling, so the summaries are checked on fixed timings instead.
func TestReport(t *testing.T) {
	sleeps := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond}
	_, rep, err := Map(context.Background(), 2, sleeps,
		func(_ context.Context, _ int, d time.Duration) (int, error) {
			time.Sleep(d)
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != len(sleeps) {
		t.Fatalf("%d job timings, want %d", len(rep.Jobs), len(sleeps))
	}
	for i, j := range rep.Jobs {
		if j.Index != i {
			t.Errorf("timing %d has index %d", i, j.Index)
		}
		if j.Elapsed < sleeps[i] {
			t.Errorf("job %d elapsed %v, below its %v sleep", i, j.Elapsed, sleeps[i])
		}
	}
	if rep.Wall < rep.Slowest().Elapsed {
		t.Errorf("wall %v < slowest job %v", rep.Wall, rep.Slowest().Elapsed)
	}

	ms := time.Millisecond
	fixed := &Report{Parallel: 2, Wall: 20 * ms, Jobs: []JobTiming{{0, 5 * ms}, {1, 15 * ms}, {2, 10 * ms}}}
	if s := fixed.Slowest(); s != (JobTiming{1, 15 * ms}) {
		t.Errorf("slowest = %+v, want job #1 at 15ms", s)
	}
	if w := fixed.Work(); w != 30*ms {
		t.Errorf("work = %v, want 30ms", w)
	}
	if o := fixed.Overlap(); o != 1.5 {
		t.Errorf("overlap = %v, want 1.5", o)
	}
	want := "3 jobs on 2 workers: wall 20ms, work 30ms (1.5x overlap), slowest job #1 15ms"
	if s := fixed.String(); s != want {
		t.Errorf("report string %q, want %q", s, want)
	}
}
