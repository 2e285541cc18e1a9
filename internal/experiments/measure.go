// Package experiments regenerates every figure of the paper's evaluation:
//
//	Fig. 2 — analytical speedup vs. accelerator granularity (A72, a=30%, A=3)
//	Fig. 3 — per-mode interval timelines
//	Fig. 4 — model-vs-simulator error on the synthetic microbenchmark sweep
//	Fig. 5 — heap-manager TCA: model speedup, simulated speedup, error
//	Fig. 6 — DGEMM TCAs (2x2/4x4/8x8): measured vs. estimated speedup
//	Fig. 7 — design-space heatmaps (HP/LP cores x 4 modes) with accelerator
//	         operating curves
//	Fig. 8 — speedup vs. coverage for a 100-instruction A=2 TCA
//
// Each figure function returns typed rows/series that render to an ASCII
// chart and CSV. Sections is the whole artifact as one table (each
// section's -fig IDs, title, -quick sizes and rendering), which
// cmd/figures and the root benchmarks loop over. Every simulated
// driver is a list of Points — a workload spec and a core config —
// measured by one shared sweep, which also runs the optional static
// pre-pass.
//
// Every simulation a driver issues goes through a scenario.Spec and an
// optional scenario.Store, so identical runs are described identically,
// deduplicated within and across sweeps, and (with a disk-backed store)
// reused across processes. A nil store reproduces the uncached behavior
// exactly — the contract, enforced by tests and scripts/check.sh, is
// byte-identical figure output with the cache off, cold, or warm.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// MaxCycles bounds every simulation in the harness. It is part of every
// run and measure digest, so scenariod serves with the same bound
// (serve.DefaultMaxCycles) and its results match local sweeps.
const MaxCycles = 4_000_000_000

// ModeMeasurement is one (workload, mode) comparison of the simulator
// against the model. It is the scenario layer's ModeResult: the record
// a store caches is exactly what the drivers report.
type ModeMeasurement = scenario.ModeResult

// WorkloadResult is the full validation record for one workload on one
// core configuration: the cacheable measurement plus the identity it
// was measured under.
type WorkloadResult struct {
	Workload *workload.Workload
	Config   sim.Config

	scenario.MeasureRecord
}

// accelEvents converts the simulator's event trace to the interval
// package's simulation-free record type (simlint R11 keeps sim types out
// of the prediction stack).
func accelEvents(events []sim.AccelEvent) []interval.AccelEvent {
	out := make([]interval.AccelEvent, len(events))
	for i, e := range events {
		out[i] = interval.AccelEvent{
			Seq:      e.Seq,
			Dispatch: e.Dispatch,
			Start:    e.Start,
			Done:     e.Done,
			Commit:   e.Commit,
		}
	}
	return out
}

// archOf extracts the model's architecture constants from a simulator
// configuration.
func archOf(cfg sim.Config) core.CoreParams {
	return core.CoreParams{
		ROBSize:     cfg.ROBSize,
		IssueWidth:  cfg.DispatchWidth,
		CommitStall: float64(cfg.CommitDelay),
	}
}

// measureRun is the outcome of one simulation job inside measureCompute:
// either the baseline run or one accelerated mode.
type measureRun struct {
	stats  sim.Stats
	cycles int64
	// L_T extras: mean ROB occupancy, and the measured mean TCA service
	// time when the run recorded its event trace.
	occupancy   float64
	meanService float64
	hasService  bool
}

// MeasureWorkload runs the full paper methodology for one workload:
// simulate the baseline, calibrate the model from it via interval
// analysis, simulate the accelerated program in all four modes, and
// compare speedups. The five simulations fan out across GOMAXPROCS
// workers; MeasureWorkloadStore sets the width.
func MeasureWorkload(cfg sim.Config, w *workload.Workload) (*WorkloadResult, error) {
	return MeasureWorkloadStore(nil, cfg, w, 0)
}

// MeasureWorkloadStore is the primary entry point: MeasureWorkload
// through a scenario store, its five runs parallel wide (<= 0 selects
// GOMAXPROCS, 1 forces the serial path). The whole measurement caches
// as one record keyed by the canonical (config, workload) digest; on a
// measure-level miss the five constituent runs — baseline plus four
// modes — go through the store's run-level cache individually, so a
// baseline shared between sweeps still executes only once. A nil store
// executes everything directly. Any store state and any worker count
// produce bit-identical results: the five runs are independent, each
// building its own core, memory image, and device.
func MeasureWorkloadStore(store *scenario.Store, cfg sim.Config, w *workload.Workload, parallel int) (*WorkloadResult, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	spec := scenario.MeasureSpec{Config: cfg, Workload: w, MaxCycles: MaxCycles}
	rec, err := store.Measure(spec, func() (scenario.MeasureRecord, error) {
		return measureCompute(store, cfg, w, parallel)
	})
	if err != nil {
		return nil, err
	}
	return &WorkloadResult{Workload: w, Config: cfg, MeasureRecord: rec}, nil
}

// measureCompute performs the actual five-run measurement and model
// comparison. Each run is issued as a scenario.Spec through the store.
func measureCompute(store *scenario.Store, cfg sim.Config, w *workload.Workload, parallel int) (scenario.MeasureRecord, error) {
	var rec scenario.MeasureRecord

	// Job 0 is the baseline; jobs 1..4 are the accelerated modes. The
	// L_T run records the event trace so memory-dependent accelerators
	// get a measured latency, and its mean ROB occupancy calibrates the
	// drain estimate: the window the NL modes drain holds the accelerated
	// program's non-accelerated instruction population, whose occupancy
	// the baseline (with its software regions still inline) overstates.
	runs, _, err := runner.Sweep(context.Background(), parallel, 1+len(accel.AllModes),
		func(_ context.Context, i int) (measureRun, error) {
			if i == 0 {
				stats, err := store.RunStats(scenario.Spec{
					Config:    cfg,
					Program:   w.Baseline,
					MaxCycles: MaxCycles,
				})
				if err != nil {
					return measureRun{}, fmt.Errorf("experiments: %s baseline: %w", w.Name, err)
				}
				return measureRun{stats: stats}, nil
			}
			m := accel.AllModes[i-1]
			mcfg := cfg
			mcfg.Mode = m
			//lint:ignore R4 exact sentinel: AccelLatency zero means "unset, measure it", never a computed value
			mcfg.RecordAccelEvents = m == accel.LT && w.AccelLatency == 0
			stats, err := store.RunStats(scenario.Spec{
				Config:    mcfg,
				Program:   w.Accelerated,
				NewDevice: w.NewDevice,
				DeviceKey: w.DeviceKey,
				MaxCycles: MaxCycles,
			})
			if err != nil {
				return measureRun{}, fmt.Errorf("experiments: %s %s: %w", w.Name, m, err)
			}
			run := measureRun{cycles: stats.Cycles}
			if m == accel.LT {
				run.occupancy = stats.AvgROBOccupancy()
			}
			if mcfg.RecordAccelEvents {
				svc, err := interval.AnalyzeEvents(accelEvents(stats.AccelEvents))
				if err != nil {
					return measureRun{}, fmt.Errorf("experiments: %s: %w", w.Name, err)
				}
				run.meanService = svc.MeanService
				run.hasService = true
			}
			return run, nil
		})
	if err != nil {
		return rec, err
	}

	baseStats := runs[0].stats
	rec.BaselineCycles = baseStats.Cycles
	rec.BaselineIPC = baseStats.IPC()
	simCycles := make(map[accel.Mode]int64, len(accel.AllModes))
	var ltOccupancy float64
	for i, m := range accel.AllModes {
		run := runs[1+i]
		simCycles[m] = run.cycles
		if m == accel.LT {
			ltOccupancy = run.occupancy
		}
		if run.hasService {
			rec.MeasuredAccelLatency = run.meanService
		}
	}

	// Calibrate the model from the baseline measurement.
	lat := w.AccelLatency
	if lat == 0 { //lint:ignore R4 exact sentinel: AccelLatency zero means "unset, use the measured latency"
		lat = rec.MeasuredAccelLatency
	}
	meas := interval.BaselineMeasurement{
		Cycles:                    baseStats.Cycles,
		Instructions:              baseStats.Committed,
		AcceleratableInstructions: w.Acceleratable,
		Invocations:               w.Invocations,
		AvgROBOccupancy:           baseStats.AvgROBOccupancy(),
	}
	if ltOccupancy > 0 {
		meas.AvgROBOccupancy = ltOccupancy
	}
	params, err := interval.Calibrate(meas, archOf(cfg), 0, lat)
	if err != nil {
		return rec, fmt.Errorf("experiments: %s calibrate: %w", w.Name, err)
	}
	rec.Params = params

	model, err := params.Speedups()
	if err != nil {
		return rec, fmt.Errorf("experiments: %s model: %w", w.Name, err)
	}
	rec.Modes = make([]ModeMeasurement, 0, len(accel.AllModes))
	for _, m := range accel.AllModes {
		simSp := float64(baseStats.Cycles) / float64(simCycles[m])
		modSp := model.Get(m)
		rec.Modes = append(rec.Modes, ModeMeasurement{
			Mode:         m,
			SimCycles:    simCycles[m],
			SimSpeedup:   simSp,
			ModelSpeedup: modSp,
			Error:        interval.SpeedupError(modSp, simSp),
		})
	}
	return rec, nil
}
