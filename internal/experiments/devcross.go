package experiments

import (
	"fmt"
	"strings"

	"repro/internal/accel"
	"repro/internal/isa"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/staticmodel"
	"repro/internal/textplot"
	"repro/internal/workload"
)

// DevCrossConfig parameterizes the device-family mode-crossover study: the
// two engine-contract families (DAE streaming and the loop accelerator) are
// swept over invocation granularity, and for every point all four L/T modes
// are cycle-simulated. Small invocations leave the per-invocation overhead
// (the DAE's pipeline fill, the loop nest's configuration cost) exposed and
// favor the speculation-friendly modes; large invocations amortize it and
// the modes converge — the crossover the figure renders. The static tier's
// engine-occupancy term is computed from each device's actual schedule and
// tabulated alongside, showing how a new family plugs into the analytical
// path without per-point measurement.
type DevCrossConfig struct {
	// Core is the simulated core for every point.
	Core sim.Config
	// DAE is the streaming workload template; DAEWords overrides its
	// WordsPerStream per sweep point.
	DAE      workload.DAEStreamConfig
	DAEWords []int
	// Loop is the loop-nest workload template; LoopTrips overrides its
	// Trips per sweep point.
	Loop      workload.LoopNestConfig
	LoopTrips []int
	// Parallel is the worker count for the point sweep.
	Parallel int
	// Store optionally caches every run; nil computes directly.
	Store *scenario.Store
}

// DefaultDevCross sweeps both families across two decades of granularity on
// the high-performance core.
func DefaultDevCross() DevCrossConfig {
	return DevCrossConfig{
		Core: sim.HighPerfConfig(),
		DAE: workload.DAEStreamConfig{
			Streams: 12, WordsPerStream: 16, FillerPerOp: 40,
			ChunkWords: 8, ComputePerChunk: 6, Startup: 60, Seed: 21,
		},
		DAEWords: []int{4, 16, 64, 256},
		Loop: workload.LoopNestConfig{
			Calls: 12, FillerPerOp: 40, Trips: 4, Depth: 2,
			IterLatency: 2, ConfigLatency: 80, Seed: 22,
		},
		LoopTrips: []int{2, 4, 8, 16},
	}
}

// DevCrossMode is one (point, mode) simulated speedup.
type DevCrossMode struct {
	Mode    accel.Mode
	Speedup float64
}

// DevCrossRow is one sweep point of one family.
type DevCrossRow struct {
	// Family is "dae" or "loopnest"; Point the swept value (words per
	// stream, trips per level).
	Family string
	Point  int
	// Granularity is baseline instructions replaced per invocation.
	Granularity float64
	// StaticOccupancy is the static tier's per-invocation engine
	// occupancy, computed from the device's actual schedule.
	StaticOccupancy float64
	Modes           []DevCrossMode
	// Best is the fastest simulated mode.
	Best accel.Mode
}

// DevCrossResult is the full crossover table.
type DevCrossResult struct {
	Rows []DevCrossRow
}

// devCrossOccupancy is the static tier's engine occupancy for one device
// call. The schedule comes from invoking the device once against a blank
// memory image — the exact schedule the simulator's engine would
// execute, so the static term cannot drift from the device.
func devCrossOccupancy(m staticmodel.Machine, dev isa.AccelDevice, call isa.AccelCall) float64 {
	return m.EngineOccupancy(dev.Invoke(call, isa.NewMemory()).Schedule)
}

// DevCross runs the study.
func DevCross(cfg DevCrossConfig) (*DevCrossResult, error) {
	machine := StaticMachine(cfg.Core)
	var rows []DevCrossRow
	var points []Point
	for _, words := range cfg.DAEWords {
		wcfg := cfg.DAE
		wcfg.WordsPerStream = words
		occ := devCrossOccupancy(machine, accel.NewDAE(wcfg.ChunkWords, wcfg.ComputePerChunk, wcfg.Startup),
			isa.AccelCall{Kind: accel.DAEReduce, Args: [3]uint64{0x1000, uint64(words)}})
		rows = append(rows, DevCrossRow{Family: "dae", Point: words, StaticOccupancy: occ})
		points = append(points, Point{Config: cfg.Core, Spec: workload.Spec{Kind: "daestream", DAEStream: &wcfg}})
	}
	for _, trips := range cfg.LoopTrips {
		lcfg := cfg.Loop
		lcfg.Trips = trips
		occ := devCrossOccupancy(machine, accel.NewLoopNest(lcfg.Depth, lcfg.IterLatency, lcfg.ConfigLatency),
			isa.AccelCall{Kind: accel.LoopNestRun, Args: [3]uint64{uint64(trips), 1}})
		rows = append(rows, DevCrossRow{Family: "loopnest", Point: trips, StaticOccupancy: occ})
		points = append(points, Point{Config: cfg.Core, Spec: workload.Spec{Kind: "loopnest", LoopNest: &lcfg}})
	}
	res, _, err := sweep(cfg.Store, cfg.Parallel, 1, points, nil)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		row := &rows[i]
		row.Granularity = res[i].Workload.Granularity()
		var best float64
		for j, m := range accel.AllModes {
			sp := res[i].Mode(m).SimSpeedup
			row.Modes = append(row.Modes, DevCrossMode{Mode: m, Speedup: sp})
			if j == 0 || sp > best {
				best = sp
				row.Best = m
			}
		}
	}
	return &DevCrossResult{Rows: rows}, nil
}

// Render produces the crossover table.
func (r *DevCrossResult) Render() string {
	var b strings.Builder
	b.WriteString("Device-family mode crossover (engine contract: DAE streaming, loop accelerator)\n\n")
	header := []string{"family", "point", "granularity", "static occ"}
	for _, m := range accel.AllModes {
		header = append(header, m.String())
	}
	header = append(header, "best")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := []string{
			row.Family,
			fmt.Sprintf("%d", row.Point),
			fmt.Sprintf("%.0f", row.Granularity),
			fmt.Sprintf("%.0f", row.StaticOccupancy),
		}
		for _, m := range row.Modes {
			cells = append(cells, fmt.Sprintf("%.2f", m.Speedup))
		}
		cells = append(cells, row.Best.String())
		rows = append(rows, cells)
	}
	b.WriteString(textplot.Table(header, rows))
	b.WriteString("\nSpeedup vs. the software baseline per mode; static occ is the per-invocation\nengine occupancy from the device's schedule on this machine.\n")
	return b.String()
}

// CSV serializes every (point, mode) speedup.
func (r *DevCrossResult) CSV() string {
	var b strings.Builder
	b.WriteString("family,point,granularity,static_occupancy,mode,speedup,best\n")
	for _, row := range r.Rows {
		for _, m := range row.Modes {
			fmt.Fprintf(&b, "%s,%d,%g,%g,%s,%g,%s\n",
				row.Family, row.Point, row.Granularity, row.StaticOccupancy,
				m.Mode, m.Speedup, row.Best)
		}
	}
	return b.String()
}
