package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/accel"
	"repro/internal/isa"
)

// ffCase is one program/device/config combination checked for fast-forward
// transparency.
type ffCase struct {
	name string
	cfg  Config
	prog *isa.Program
	dev  func() isa.AccelDevice // nil for baseline programs
}

// runFFCase runs one simulation with the given NoFastForward setting and
// returns the stats plus final architectural state.
func runFFCase(t *testing.T, c ffCase, noFF bool) *Result {
	t.Helper()
	cfg := c.cfg
	cfg.NoFastForward = noFF
	var dev isa.AccelDevice
	if c.dev != nil {
		dev = c.dev()
	}
	core, err := New(cfg, c.prog, dev)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	res, err := core.Run(2_000_000_000)
	if err != nil {
		t.Fatalf("sim.Run(noFF=%v): %v", noFF, err)
	}
	return res
}

// assertFFTransparent is the heart of the differential suite: a run with
// the event-horizon scheduler enabled must be indistinguishable — every
// statistic, every register, all of memory — from the same run executed
// cycle by cycle. Only the two fast-forward observability counters may
// differ; they are zeroed before comparison. Returns the cycles skipped so
// callers can assert the scheduler actually engaged.
func assertFFTransparent(t *testing.T, c ffCase) int64 {
	t.Helper()
	ff := runFFCase(t, c, false)
	slow := runFFCase(t, c, true)

	if slow.Stats.FastForwardedCycles != 0 || slow.Stats.FastForwardJumps != 0 {
		t.Errorf("NoFastForward run skipped %d cycles in %d jumps, want none",
			slow.Stats.FastForwardedCycles, slow.Stats.FastForwardJumps)
	}
	skipped := ff.Stats.FastForwardedCycles
	got := ff.Stats
	got.FastForwardedCycles = 0
	got.FastForwardJumps = 0
	if !reflect.DeepEqual(got, slow.Stats) {
		t.Errorf("stats diverge beyond fast-forward counters:\nfast-forward:\n%v\ncycle-by-cycle:\n%v",
			got, slow.Stats)
	}
	if ff.Regs != slow.Regs {
		t.Error("final register files diverge")
	}
	if !ff.Mem.Equal(slow.Mem) {
		t.Error("final memory images diverge")
	}
	return skipped
}

// TestFastForwardTransparentOnWorkloads checks transparency for every
// benchmark workload: the baseline program and the accelerated program in
// all four TCA integration modes.
func TestFastForwardTransparentOnWorkloads(t *testing.T) {
	var totalSkipped int64
	for _, c := range standardWorkloads(t) {
		t.Run(c.name+"-baseline", func(t *testing.T) {
			totalSkipped += assertFFTransparent(t, ffCase{
				name: c.name, cfg: c.cfg, prog: c.w.Baseline,
			})
		})
		for _, m := range accel.AllModes {
			t.Run(fmt.Sprintf("%s-%s", c.name, m), func(t *testing.T) {
				cfg := c.cfg
				cfg.Mode = m
				totalSkipped += assertFFTransparent(t, ffCase{
					name: c.name, cfg: cfg, prog: c.w.Accelerated, dev: c.w.NewDevice,
				})
			})
		}
	}
	if totalSkipped == 0 {
		t.Error("fast-forward never engaged across the whole workload suite")
	}
}

// TestFastForwardTransparentPartialSpeculation covers the partial-
// speculation confidence gate, whose per-cycle AccelConfidenceWait counter
// fastForward must replicate.
func TestFastForwardTransparentPartialSpeculation(t *testing.T) {
	prog := partialProgram(300)
	for _, m := range []accel.Mode{accel.LNT, accel.LT} {
		for _, kind := range []string{"bimodal", "gshare"} {
			t.Run(fmt.Sprintf("%s-%s", m, kind), func(t *testing.T) {
				cfg := HighPerfConfig()
				cfg.Mode = m
				cfg.PartialSpeculation = true
				cfg.Predictor = PredictorConfig{Kind: kind}
				assertFFTransparent(t, ffCase{cfg: cfg, prog: prog, dev: heapDev})
			})
		}
	}
}

// TestFastForwardTransparentCoarseGrain drives the scenario the scheduler
// exists for — long-latency invocations under the NL drain and NT barrier,
// where nearly every cycle is idle — and demands substantial skipping.
func TestFastForwardTransparentCoarseGrain(t *testing.T) {
	prog := accelProgram(25, 30)
	for _, m := range accel.AllModes {
		t.Run(m.String(), func(t *testing.T) {
			cfg := LowPerfConfig()
			cfg.Mode = m
			skipped := assertFFTransparent(t, ffCase{
				cfg: cfg, prog: prog,
				dev: func() isa.AccelDevice { return accel.NewFixedLatency(20_000) },
			})
			// 25 invocations x 20000 busy cycles: the overwhelming
			// majority of simulated time is idle in every mode.
			if skipped < 100_000 {
				t.Errorf("skipped only %d cycles on a 20k-cycle-latency TCA", skipped)
			}
		})
	}
}

// TestFastForwardErrorParity pins the clamping behavior: the cycle budget
// and the deadlock watchdog must trip identically with and without
// fast-forwarding, including the cycle counts embedded in the messages.
func TestFastForwardErrorParity(t *testing.T) {
	runErr := func(prog *isa.Program, dev isa.AccelDevice, maxCycles int64, noFF bool) error {
		cfg := LowPerfConfig()
		cfg.Mode = accel.NLNT
		cfg.NoFastForward = noFF
		core, err := New(cfg, prog, dev)
		if err != nil {
			t.Fatal(err)
		}
		_, err = core.Run(maxCycles)
		return err
	}

	// Cycle budget: a coarse-grained run that cannot finish in time.
	prog := accelProgram(25, 30)
	dev := func() isa.AccelDevice { return accel.NewFixedLatency(20_000) }
	ffErr := runErr(prog, dev(), 50_000, false)
	slowErr := runErr(prog, dev(), 50_000, true)
	if ffErr == nil || slowErr == nil {
		t.Fatalf("cycle budget not exhausted: ff=%v slow=%v", ffErr, slowErr)
	}
	if ffErr.Error() != slowErr.Error() {
		t.Errorf("cycle-limit errors diverge:\nfast-forward: %v\ncycle-by-cycle: %v", ffErr, slowErr)
	}

	// Deadlock watchdog: a device that never finishes. The fixed-latency
	// device with a latency beyond the watchdog window behaves as one.
	b := isa.NewBuilder()
	b.MovI(isa.R(1), 5)
	b.Accel(isa.R(10), 0, isa.R(1))
	b.Halt()
	hang := b.MustBuild()
	hangDev := func() isa.AccelDevice { return accel.NewFixedLatency(2_000_000) }
	ffErr = runErr(hang, hangDev(), 100_000_000, false)
	slowErr = runErr(hang, hangDev(), 100_000_000, true)
	if ffErr == nil || slowErr == nil {
		t.Fatalf("watchdog did not trip: ff=%v slow=%v", ffErr, slowErr)
	}
	if ffErr.Error() != slowErr.Error() {
		t.Errorf("deadlock errors diverge:\nfast-forward: %v\ncycle-by-cycle: %v", ffErr, slowErr)
	}
}
