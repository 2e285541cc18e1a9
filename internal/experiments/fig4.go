package experiments

import (
	"fmt"
	"strings"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/textplot"
	"repro/internal/workload"
)

// Fig4Config parameterizes the synthetic-microbenchmark validation sweep.
// The sweep raises the accelerator-instruction count — increasing both
// invocation frequency and coverage together, exactly as §V-A does.
type Fig4Config struct {
	Core sim.Config
	// Units/UnitLen size the fixed filler pool.
	Units   int
	UnitLen int
	// RegionLen is the acceleratable-region size in baseline
	// instructions; AccelLatency the TCA latency replacing it.
	RegionLen    int
	AccelLatency int
	// RegionCounts is the sweep: one workload instance per count.
	RegionCounts []int
	Seed         int64
	// Parallel is the worker count for the sweep (<= 0 selects
	// GOMAXPROCS, 1 forces the serial path). Any width produces
	// bit-identical results; see internal/runner.
	Parallel int
	// Store optionally caches and deduplicates runs; nil executes
	// everything directly with identical results.
	Store *scenario.Store
	// Prune optionally enables the StaticRank pre-pass: every sweep
	// point is ranked by the static model and only the top-K frontier
	// plus a seeded audit sample is cycle-simulated. Nil (the default)
	// simulates every point through the exact unpruned code path.
	Prune *StaticPruneConfig
}

// DefaultFig4 sizes the sweep for the default harness.
func DefaultFig4() Fig4Config {
	return Fig4Config{
		Core:         sim.HighPerfConfig(),
		Units:        400,
		UnitLen:      25,
		RegionLen:    60,
		AccelLatency: 12,
		RegionCounts: []int{5, 10, 20, 40, 80, 160, 320, 640},
		Seed:         42,
	}
}

// Fig4Row is one workload instance of the sweep.
type Fig4Row struct {
	AccelInstructions int
	Result            *WorkloadResult
}

// Fig4Result is the full validation sweep. Prune is non-nil only when
// the StaticRank pre-pass ran; renderers ignore it (a pruned run simply
// has fewer rows) so the driver can report it on stderr.
type Fig4Result struct {
	Rows  []Fig4Row
	Prune *PruneReport
}

// Points lists the sweep: one synthetic workload per region count, its
// placement seed varied per instance.
func (cfg Fig4Config) Points() []Point {
	points := make([]Point, len(cfg.RegionCounts))
	for i, n := range cfg.RegionCounts {
		points[i] = Point{Config: cfg.Core, Spec: workload.Spec{Kind: "synthetic", Synthetic: &workload.SyntheticConfig{
			Units:        cfg.Units,
			UnitLen:      cfg.UnitLen,
			Regions:      n,
			RegionLen:    cfg.RegionLen,
			AccelLatency: cfg.AccelLatency,
			Seed:         cfg.Seed + int64(i),
		}}}
	}
	return points
}

// Fig4 validates the model against the simulator on every sweep point
// and reports per-mode errors. With cfg.Prune set, a static pre-pass
// ranks all points first and only the selected frontier is simulated.
func Fig4(cfg Fig4Config) (*Fig4Result, error) {
	res, rep, err := sweep(cfg.Store, cfg.Parallel, cfg.Parallel, cfg.Points(), cfg.Prune)
	if err != nil {
		return nil, err
	}
	out := &Fig4Result{Prune: rep}
	for i, n := range cfg.RegionCounts {
		if res[i] != nil {
			out.Rows = append(out.Rows, Fig4Row{AccelInstructions: n, Result: res[i]})
		}
	}
	return out, nil
}

// Chart plots |error| per mode against the accelerator-instruction count.
func (r *Fig4Result) Chart() textplot.Chart {
	ch := textplot.Chart{
		Title:  "Fig 4: analytical model speedup error vs #accel instructions (synthetic)",
		XLabel: "accelerator instructions (log)",
		YLabel: "error (model-sim)/sim",
		LogX:   true,
	}
	if len(r.Rows) == 0 {
		return ch
	}
	for _, mm := range r.Rows[0].Result.Modes {
		s := textplot.Series{Name: mm.Mode.String()}
		for _, row := range r.Rows {
			s.X = append(s.X, float64(row.AccelInstructions))
			s.Y = append(s.Y, row.Result.Mode(mm.Mode).Error)
		}
		ch.Series = append(ch.Series, s)
	}
	return ch
}

// Render produces the chart plus the per-instance table.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	b.WriteString(r.Chart().Render())
	b.WriteString("\n")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		res := row.Result
		cells := []string{
			fmt.Sprintf("%d", row.AccelInstructions),
			fmt.Sprintf("%.3f", res.Params.AcceleratableFrac),
			fmt.Sprintf("%.2e", res.Params.InvocationFreq),
			fmt.Sprintf("%.2f", res.BaselineIPC),
		}
		for _, mm := range res.Modes {
			cells = append(cells, fmt.Sprintf("%+.1f%%", 100*mm.Error))
		}
		rows = append(rows, cells)
	}
	header := []string{"#accel", "a", "v", "IPC"}
	for _, mm := range r.Rows[0].Result.Modes {
		header = append(header, "err "+mm.Mode.String())
	}
	b.WriteString(textplot.Table(header, rows))
	return b.String()
}

// CSV serializes every (instance, mode) speedup pair.
func (r *Fig4Result) CSV() string {
	var b strings.Builder
	b.WriteString("accel_instructions,a,v,ipc,mode,sim_speedup,model_speedup,error\n")
	for _, row := range r.Rows {
		for _, mm := range row.Result.Modes {
			fmt.Fprintf(&b, "%d,%g,%g,%g,%s,%g,%g,%g\n",
				row.AccelInstructions,
				row.Result.Params.AcceleratableFrac,
				row.Result.Params.InvocationFreq,
				row.Result.BaselineIPC,
				mm.Mode, mm.SimSpeedup, mm.ModelSpeedup, mm.Error)
		}
	}
	return b.String()
}

// MaxAbsError returns the worst |error| across the sweep.
func (r *Fig4Result) MaxAbsError() float64 {
	var worst float64
	for _, row := range r.Rows {
		if e := row.Result.MaxAbsError(); e > worst {
			worst = e
		}
	}
	return worst
}
