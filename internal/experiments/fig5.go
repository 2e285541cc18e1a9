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

// Fig5Config parameterizes the heap-manager validation: a sweep over
// malloc/free call frequency (via the filler distance between calls).
type Fig5Config struct {
	Core       sim.Config
	Operations int
	// FillerCounts is the sweep axis: non-acceleratable instructions
	// between consecutive calls (smaller = higher invocation frequency).
	FillerCounts []int
	Prefill      int
	Seed         int64
	// WarmupFiller prepends a scalar warmup phase of this many
	// instructions to every generated program (see
	// workload.HeapConfig.WarmupFiller). Zero, the default, keeps the
	// sweep byte-identical to earlier revisions; warmup-heavy studies
	// set it so the store's warm-checkpoint forking can share the prefix
	// across the four modes of each point.
	WarmupFiller int
	// Parallel is the sweep's worker count (<= 0 selects GOMAXPROCS).
	Parallel int
	// Store optionally caches and deduplicates runs; nil executes
	// everything directly with identical results.
	Store *scenario.Store
	// Prune optionally enables the StaticRank pre-pass (see Fig4Config).
	Prune *StaticPruneConfig
}

// DefaultFig5 sizes the sweep for the default harness.
func DefaultFig5() Fig5Config {
	return Fig5Config{
		Core:         sim.HighPerfConfig(),
		Operations:   600,
		FillerCounts: []int{0, 5, 10, 20, 40, 80, 160, 320},
		Prefill:      512,
		Seed:         7,
	}
}

// Fig5Row is one frequency point.
type Fig5Row struct {
	FillerPerCall int
	Result        *WorkloadResult
}

// Fig5Result is the heap validation sweep: panels (a) model speedup,
// (b) simulated speedup, (c) error, per mode.
type Fig5Result struct {
	Rows  []Fig5Row
	Prune *PruneReport
}

// Points lists the sweep: one heap workload per filler distance.
func (cfg Fig5Config) Points() []Point {
	points := make([]Point, len(cfg.FillerCounts))
	for i, filler := range cfg.FillerCounts {
		points[i] = Point{Config: cfg.Core, Spec: workload.Spec{Kind: "heap", Heap: &workload.HeapConfig{
			Operations:    cfg.Operations,
			FillerPerCall: filler,
			Prefill:       cfg.Prefill,
			Seed:          cfg.Seed,
			WarmupFiller:  cfg.WarmupFiller,
		}}}
	}
	return points
}

// Fig5 runs the heap-manager study over the frequency sweep. With
// cfg.Prune set, a static pre-pass ranks all points first and only the
// selected frontier is simulated.
func Fig5(cfg Fig5Config) (*Fig5Result, error) {
	res, rep, err := sweep(cfg.Store, cfg.Parallel, cfg.Parallel, cfg.Points(), cfg.Prune)
	if err != nil {
		return nil, err
	}
	out := &Fig5Result{Prune: rep}
	for i, filler := range cfg.FillerCounts {
		if res[i] != nil {
			out.Rows = append(out.Rows, Fig5Row{FillerPerCall: filler, Result: res[i]})
		}
	}
	return out, nil
}

// panel builds one chart over invocation frequency.
func (r *Fig5Result) panel(title, ylabel string, pick func(ModeMeasurement) float64) textplot.Chart {
	ch := textplot.Chart{Title: title, XLabel: "invocation frequency v (log)", YLabel: ylabel, LogX: true}
	if len(r.Rows) == 0 {
		return ch
	}
	for _, m := range accel.AllModes {
		s := textplot.Series{Name: m.String()}
		for _, row := range r.Rows {
			s.X = append(s.X, row.Result.Params.InvocationFreq)
			s.Y = append(s.Y, pick(row.Result.Mode(m)))
		}
		ch.Series = append(ch.Series, s)
	}
	return ch
}

// ModelChart is panel (a).
func (r *Fig5Result) ModelChart() textplot.Chart {
	return r.panel("Fig 5a: heap TCA analytical model speedup", "model speedup",
		func(m ModeMeasurement) float64 { return m.ModelSpeedup })
}

// SimChart is panel (b).
func (r *Fig5Result) SimChart() textplot.Chart {
	return r.panel("Fig 5b: heap TCA simulated speedup", "sim speedup",
		func(m ModeMeasurement) float64 { return m.SimSpeedup })
}

// ErrorChart is panel (c).
func (r *Fig5Result) ErrorChart() textplot.Chart {
	return r.panel("Fig 5c: heap TCA model error", "(model-sim)/sim",
		func(m ModeMeasurement) float64 { return m.Error })
}

// Render produces all three panels plus a table.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	b.WriteString(r.ModelChart().Render())
	b.WriteString("\n")
	b.WriteString(r.SimChart().Render())
	b.WriteString("\n")
	b.WriteString(r.ErrorChart().Render())
	b.WriteString("\n")
	header := []string{"filler", "v", "a", "IPC"}
	for _, m := range accel.AllModes {
		header = append(header, "sim "+m.String(), "est "+m.String())
	}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := []string{
			fmt.Sprintf("%d", row.FillerPerCall),
			fmt.Sprintf("%.2e", row.Result.Params.InvocationFreq),
			fmt.Sprintf("%.3f", row.Result.Params.AcceleratableFrac),
			fmt.Sprintf("%.2f", row.Result.BaselineIPC),
		}
		for _, m := range accel.AllModes {
			mm := row.Result.Mode(m)
			cells = append(cells, fmt.Sprintf("%.2f", mm.SimSpeedup), fmt.Sprintf("%.2f", mm.ModelSpeedup))
		}
		rows = append(rows, cells)
	}
	b.WriteString(textplot.Table(header, rows))
	return b.String()
}

// CSV serializes every point.
func (r *Fig5Result) CSV() string {
	var b strings.Builder
	b.WriteString("filler_per_call,v,a,ipc,mode,sim_speedup,model_speedup,error\n")
	for _, row := range r.Rows {
		for _, mm := range row.Result.Modes {
			fmt.Fprintf(&b, "%d,%g,%g,%g,%s,%g,%g,%g\n",
				row.FillerPerCall,
				row.Result.Params.InvocationFreq,
				row.Result.Params.AcceleratableFrac,
				row.Result.BaselineIPC,
				mm.Mode, mm.SimSpeedup, mm.ModelSpeedup, mm.Error)
		}
	}
	return b.String()
}

// MaxAbsError returns the worst |error| across the sweep.
func (r *Fig5Result) MaxAbsError() float64 {
	var worst float64
	for _, row := range r.Rows {
		if e := row.Result.MaxAbsError(); e > worst {
			worst = e
		}
	}
	return worst
}
