package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/accel"
	"repro/internal/scenario"
	"repro/internal/staticmodel"
	"repro/internal/textplot"
)

// StaticErrConfig parameterizes the static-vs-simulated accuracy study:
// every point of the Fig4 and Fig5 sweeps is both statically predicted
// and cycle-simulated, and the per-mode discrepancies are tabulated.
// This is the evidence behind using the static tier as a pruning
// oracle — the table shows how far its speedups drift and how often its
// mode ranking matches the simulator's.
type StaticErrConfig struct {
	Fig4 Fig4Config
	Fig5 Fig5Config
	// Parallel is the worker count for the combined point sweep.
	Parallel int
	// Store optionally caches both tiers; nil computes directly.
	Store *scenario.Store
}

// StaticErrMode is one (point, mode) comparison.
type StaticErrMode struct {
	Mode accel.Mode
	// SimSpeedup is the cycle-accurate simulated speedup; StaticSpeedup
	// the static tier's prediction; Error is (static - sim) / sim.
	SimSpeedup    float64
	StaticSpeedup float64
	Error         float64
}

// StaticErrRow is one sweep point: all four modes plus whether the
// static tier picked the same best mode as the simulator.
type StaticErrRow struct {
	// Workload names the point, e.g. "synthetic/40" or "heap/160".
	Workload string
	Modes    []StaticErrMode
	// SimBest and StaticBest are each tier's best mode; RankAgree is
	// SimBest == StaticBest.
	SimBest    accel.Mode
	StaticBest accel.Mode
	RankAgree  bool
}

// StaticErrResult is the full accuracy table.
type StaticErrResult struct {
	Rows []StaticErrRow
}

// StaticErr runs the study: both sweeps' points through both tiers,
// each point on its own sweep's core.
func StaticErr(cfg StaticErrConfig) (*StaticErrResult, error) {
	points := append(cfg.Fig4.Points(), cfg.Fig5.Points()...)
	names := make([]string, 0, len(points))
	for _, n := range cfg.Fig4.RegionCounts {
		names = append(names, fmt.Sprintf("synthetic/%d", n))
	}
	for _, filler := range cfg.Fig5.FillerCounts {
		names = append(names, fmt.Sprintf("heap/%d", filler))
	}
	preds, err := predict(cfg.Store, cfg.Parallel, points)
	if err != nil {
		return nil, err
	}
	res, _, err := sweep(cfg.Store, cfg.Parallel, 1, points, nil)
	if err != nil {
		return nil, err
	}
	out := &StaticErrResult{}
	for i, name := range names {
		out.Rows = append(out.Rows, staticErrRow(name, preds[i], res[i]))
	}
	return out, nil
}

// staticErrRow compares one point's two tiers.
func staticErrRow(name string, pred *staticmodel.Prediction, res *WorkloadResult) StaticErrRow {
	row := StaticErrRow{Workload: name, StaticBest: pred.BestMode()}
	var simBest float64
	for i, m := range accel.AllModes {
		sim := res.Mode(m).SimSpeedup
		st := pred.Mode(m).Speedup
		var e float64
		if sim > 0 {
			e = (st - sim) / sim
		}
		row.Modes = append(row.Modes, StaticErrMode{
			Mode: m, SimSpeedup: sim, StaticSpeedup: st, Error: e,
		})
		if i == 0 || sim > simBest {
			simBest = sim
			row.SimBest = m
		}
	}
	row.RankAgree = row.SimBest == row.StaticBest
	return row
}

// MAE is the mean |error| over every (point, mode) pair.
func (r *StaticErrResult) MAE() float64 {
	var sum float64
	var n int
	for _, row := range r.Rows {
		for _, m := range row.Modes {
			sum += math.Abs(m.Error)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RankAgreement is the fraction of points whose static best mode
// matches the simulated best mode.
func (r *StaticErrResult) RankAgreement() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	var agree int
	for _, row := range r.Rows {
		if row.RankAgree {
			agree++
		}
	}
	return float64(agree) / float64(len(r.Rows))
}

// Render produces the per-point table plus the summary line.
func (r *StaticErrResult) Render() string {
	var b strings.Builder
	b.WriteString("Static-vs-simulated speedup error (static tier as pruning oracle)\n\n")
	header := []string{"workload"}
	for _, m := range accel.AllModes {
		header = append(header, "sim "+m.String(), "static "+m.String(), "err "+m.String())
	}
	header = append(header, "sim-best", "static-best", "agree")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := []string{row.Workload}
		for _, m := range row.Modes {
			cells = append(cells,
				fmt.Sprintf("%.2f", m.SimSpeedup),
				fmt.Sprintf("%.2f", m.StaticSpeedup),
				fmt.Sprintf("%+.1f%%", 100*m.Error))
		}
		agree := "no"
		if row.RankAgree {
			agree = "yes"
		}
		cells = append(cells, row.SimBest.String(), row.StaticBest.String(), agree)
		rows = append(rows, cells)
	}
	b.WriteString(textplot.Table(header, rows))
	fmt.Fprintf(&b, "\nMAE %.1f%% over %d points x %d modes; best-mode ranking agreement %.0f%%\n",
		100*r.MAE(), len(r.Rows), len(accel.AllModes), 100*r.RankAgreement())
	return b.String()
}

// CSV serializes every (point, mode) comparison.
func (r *StaticErrResult) CSV() string {
	var b strings.Builder
	b.WriteString("workload,mode,sim_speedup,static_speedup,error,sim_best,static_best,rank_agree\n")
	for _, row := range r.Rows {
		for _, m := range row.Modes {
			fmt.Fprintf(&b, "%s,%s,%g,%g,%g,%s,%s,%t\n",
				row.Workload, m.Mode, m.SimSpeedup, m.StaticSpeedup, m.Error,
				row.SimBest, row.StaticBest, row.RankAgree)
		}
	}
	return b.String()
}
