package experiments

import (
	"fmt"
	"strings"

	"repro/internal/accel"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/textplot"
	"repro/internal/workload"
)

// Fig6Config parameterizes the DGEMM study: one N×N multiplication with
// Block×Block cache blocking, accelerated by 2×2, 4×4 and 8×8 TCAs.
type Fig6Config struct {
	Core  sim.Config
	N     int
	Block int
	Tiles []int
	Seed  int64
	// Parallel is the study's worker count (<= 0 selects GOMAXPROCS).
	Parallel int
	// Store optionally caches and deduplicates runs; nil executes
	// everything directly with identical results.
	Store *scenario.Store
}

// DefaultFig6 keeps the paper's 32×32 blocking on a simulator-practical
// matrix (the paper's 512×512 is available via cmd/figures -matmul-n=512).
func DefaultFig6() Fig6Config {
	return Fig6Config{
		Core:  sim.HighPerfConfig(),
		N:     64,
		Block: 32,
		Tiles: []int{2, 4, 8},
		Seed:  3,
	}
}

// Fig6Row is one accelerator size.
type Fig6Row struct {
	Tile   int
	Result *WorkloadResult
}

// Fig6Result is the matmul study.
type Fig6Result struct {
	Config Fig6Config
	Rows   []Fig6Row
}

// Points lists the study: one DGEMM workload per accelerator tile.
func (cfg Fig6Config) Points() []Point {
	points := make([]Point, len(cfg.Tiles))
	for i, tile := range cfg.Tiles {
		points[i] = Point{Config: cfg.Core, Spec: workload.Spec{Kind: "matmul", MatMul: &workload.MatMulConfig{
			N: cfg.N, Block: cfg.Block, Tile: tile, Seed: cfg.Seed,
		}}}
	}
	return points
}

// Fig6 runs the DGEMM validation for each tile size.
func Fig6(cfg Fig6Config) (*Fig6Result, error) {
	res, _, err := sweep(cfg.Store, cfg.Parallel, cfg.Parallel, cfg.Points(), nil)
	if err != nil {
		return nil, err
	}
	out := &Fig6Result{Config: cfg}
	for i, tile := range cfg.Tiles {
		out.Rows = append(out.Rows, Fig6Row{Tile: tile, Result: res[i]})
	}
	return out, nil
}

// Chart plots measured and estimated speedup per (tile, mode) on a log-y
// axis, matching the figure's presentation.
func (r *Fig6Result) Chart() textplot.Chart {
	ch := textplot.Chart{
		Title:  fmt.Sprintf("Fig 6: %dx%d DGEMM speedup, %dx%d blocking (log scale)", r.Config.N, r.Config.N, r.Config.Block, r.Config.Block),
		XLabel: "TCA tile edge",
		YLabel: "speedup over element-wise software (log)",
		LogY:   true,
	}
	meas := textplot.Series{Name: "Meas L_T"}
	est := textplot.Series{Name: "Est L_T"}
	measW := textplot.Series{Name: "Meas NL_NT"}
	estW := textplot.Series{Name: "Est NL_NT"}
	for _, row := range r.Rows {
		x := float64(row.Tile)
		meas.X, meas.Y = append(meas.X, x), append(meas.Y, row.Result.Mode(accel.LT).SimSpeedup)
		est.X, est.Y = append(est.X, x), append(est.Y, row.Result.Mode(accel.LT).ModelSpeedup)
		measW.X, measW.Y = append(measW.X, x), append(measW.Y, row.Result.Mode(accel.NLNT).SimSpeedup)
		estW.X, estW.Y = append(estW.X, x), append(estW.Y, row.Result.Mode(accel.NLNT).ModelSpeedup)
	}
	ch.Series = []textplot.Series{meas, est, measW, estW}
	return ch
}

// Render produces the chart plus the full per-mode table.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	b.WriteString(r.Chart().Render())
	b.WriteString("\n")
	header := []string{"accel", "mode", "meas", "est", "error", "accel lat (cyc)"}
	rows := make([][]string, 0, len(r.Rows)*4)
	for _, row := range r.Rows {
		for _, mm := range row.Result.Modes {
			rows = append(rows, []string{
				fmt.Sprintf("%dx%d", row.Tile, row.Tile),
				mm.Mode.String(),
				fmt.Sprintf("%.2f", mm.SimSpeedup),
				fmt.Sprintf("%.2f", mm.ModelSpeedup),
				fmt.Sprintf("%+.1f%%", 100*mm.Error),
				fmt.Sprintf("%.1f", row.Result.MeasuredAccelLatency),
			})
		}
	}
	b.WriteString(textplot.Table(header, rows))
	return b.String()
}

// CSV serializes every (tile, mode) pair.
func (r *Fig6Result) CSV() string {
	var b strings.Builder
	b.WriteString("tile,mode,sim_speedup,model_speedup,error,measured_latency\n")
	for _, row := range r.Rows {
		for _, mm := range row.Result.Modes {
			fmt.Fprintf(&b, "%d,%s,%g,%g,%g,%g\n",
				row.Tile, mm.Mode, mm.SimSpeedup, mm.ModelSpeedup, mm.Error,
				row.Result.MeasuredAccelLatency)
		}
	}
	return b.String()
}

// MaxAbsError returns the worst |error| across tiles and modes.
func (r *Fig6Result) MaxAbsError() float64 {
	var worst float64
	for _, row := range r.Rows {
		if e := row.Result.MaxAbsError(); e > worst {
			worst = e
		}
	}
	return worst
}
