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

// E4Config parameterizes the extension validation on the paper's other
// motivating fine-grained accelerators (Fig. 2's "hash map", "string fn"
// and "regex" markers, from reference [6]): hash-table probes, string
// compares and DFA matching — memory-using TCAs with data-dependent
// latency.
type E4Config struct {
	Core sim.Config
	// FillerCounts sweeps the invocation frequency for both workloads.
	FillerCounts []int
	Operations   int
	Seed         int64
	// Parallel is the study's worker count (<= 0 selects GOMAXPROCS).
	Parallel int
	// Store optionally caches and deduplicates runs; nil executes
	// everything directly with identical results.
	Store *scenario.Store
}

// DefaultE4 sizes the study for the harness. Operation counts keep the
// tables and key data warm (steady state), matching the paper's
// methodology of measuring the common case.
func DefaultE4() E4Config {
	return E4Config{
		Core:         sim.HighPerfConfig(),
		FillerCounts: []int{5, 20, 80, 320},
		Operations:   600,
		Seed:         17,
	}
}

// E4Row is one (workload, frequency) validation point.
type E4Row struct {
	Workload string
	Filler   int
	Result   *WorkloadResult
}

// E4Result is the study output.
type E4Result struct {
	Rows []E4Row
}

// Points lists the study: the hash-map, string-compare and regex
// workloads, in that order, at each filler distance.
func (cfg E4Config) Points() []Point {
	points := make([]Point, 0, 3*len(cfg.FillerCounts))
	for _, filler := range cfg.FillerCounts {
		points = append(points,
			Point{Config: cfg.Core, Spec: workload.Spec{Kind: "kvstore", KVStore: &workload.KVStoreConfig{
				Operations: cfg.Operations, FillerPerOp: filler,
				Buckets: 256, Keys: 128, LookupPct: 70, KeyWords: 4, Seed: cfg.Seed,
			}}},
			Point{Config: cfg.Core, Spec: workload.Spec{Kind: "stringmatch", StringMatch: &workload.StringMatchConfig{
				Comparisons: cfg.Operations, FillerPerOp: filler,
				Dictionary: 32, MinWords: 4, MaxWords: 24, SharedPrefix: 3, Seed: cfg.Seed,
			}}},
			Point{Config: cfg.Core, Spec: workload.Spec{Kind: "regexmatch", RegexMatch: &workload.RegexMatchConfig{
				Pattern: "[ab]*abb", Matches: cfg.Operations, FillerPerOp: filler,
				Inputs: 32, MaxLen: 28, Seed: cfg.Seed,
			}}})
	}
	return points
}

// E4 measures the three workloads across the frequency sweep.
func E4(cfg E4Config) (*E4Result, error) {
	points := cfg.Points()
	res, _, err := sweep(cfg.Store, cfg.Parallel, cfg.Parallel, points, nil)
	if err != nil {
		return nil, err
	}
	out := &E4Result{}
	for i, p := range points {
		filler := cfg.FillerCounts[i/3] // three workloads per filler distance
		out.Rows = append(out.Rows, E4Row{Workload: p.Spec.Kind, Filler: filler, Result: res[i]})
	}
	return out, nil
}

// Render tabulates measured vs estimated speedups per mode.
func (r *E4Result) Render() string {
	var b strings.Builder
	b.WriteString("E4: model validation on hash-map, string-compare and regex TCAs\n")
	b.WriteString("(the rest of the paper's Fig. 2 fine-grained accelerators; memory-using\n")
	b.WriteString("devices with data-dependent latency — the regex TCA's DFA walk is fully\n")
	b.WriteString("serial, one dependent table read per symbol)\n\n")
	header := []string{"workload", "filler", "a", "v", "g", "lat"}
	for _, m := range accel.AllModes {
		header = append(header, "sim "+m.String(), "est "+m.String())
	}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		res := row.Result
		cells := []string{
			row.Workload,
			fmt.Sprintf("%d", row.Filler),
			fmt.Sprintf("%.2f", res.Params.AcceleratableFrac),
			fmt.Sprintf("%.1e", res.Params.InvocationFreq),
			fmt.Sprintf("%.0f", res.Params.Granularity()),
			fmt.Sprintf("%.1f", res.MeasuredAccelLatency),
		}
		for _, m := range accel.AllModes {
			mm := res.Mode(m)
			cells = append(cells, fmt.Sprintf("%.2f", mm.SimSpeedup), fmt.Sprintf("%.2f", mm.ModelSpeedup))
		}
		rows = append(rows, cells)
	}
	b.WriteString(textplot.Table(header, rows))
	return b.String()
}

// CSV serializes the study.
func (r *E4Result) CSV() string {
	var b strings.Builder
	b.WriteString("workload,filler,a,v,granularity,measured_latency,mode,sim_speedup,model_speedup,error\n")
	for _, row := range r.Rows {
		for _, mm := range row.Result.Modes {
			fmt.Fprintf(&b, "%s,%d,%g,%g,%g,%g,%s,%g,%g,%g\n",
				row.Workload, row.Filler,
				row.Result.Params.AcceleratableFrac,
				row.Result.Params.InvocationFreq,
				row.Result.Params.Granularity(),
				row.Result.MeasuredAccelLatency,
				mm.Mode, mm.SimSpeedup, mm.ModelSpeedup, mm.Error)
		}
	}
	return b.String()
}

// MaxAbsError returns the worst |error| across the study.
func (r *E4Result) MaxAbsError() float64 {
	var worst float64
	for _, row := range r.Rows {
		if e := row.Result.MaxAbsError(); e > worst {
			worst = e
		}
	}
	return worst
}
