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

// Fig7SimPoint is one operating point of the Fig. 7 map checked on the
// simulator: does the NL_NT sign (speedup vs slowdown) match the model's
// prediction?
type Fig7SimPoint struct {
	Granularity  int
	AccelLatency int
	ModelSpeedup float64
	SimSpeedup   float64
	// SignAgrees is true when both sides fall on the same side of 1
	// (with a small dead band around exactly 1).
	SignAgrees bool
}

// Fig7SimConfig parameterizes the sign-validation study.
type Fig7SimConfig struct {
	Core sim.Config
	// Points are (granularity, accelerator latency) pairs chosen to
	// straddle the slowdown boundary: small granularity with weak
	// acceleration lands blue (slowdown), coarse or strong lands red.
	Points []struct{ Granularity, AccelLatency int }
	Seed   int64
	// Parallel is the study's worker count (<= 0 selects GOMAXPROCS).
	Parallel int
	// Store optionally caches and deduplicates runs; nil executes
	// everything directly with identical results.
	Store *scenario.Store
}

// DefaultFig7Sim picks points clearly on either side of the NL_NT
// boundary. Near-boundary cells inherit the model's NL_NT pessimism
// (EXPERIMENTS.md): on this substrate the red/blue frontier sits at
// slightly finer granularity than the model draws it, so a sign check
// needs points away from the line.
func DefaultFig7Sim() Fig7SimConfig {
	return Fig7SimConfig{
		Core: sim.HighPerfConfig(),
		Points: []struct{ Granularity, AccelLatency int }{
			{15, 25},  // weak acceleration, very fine-grained: deep blue
			{20, 15},  // slowdown region
			{400, 20}, // strong acceleration, moderate: red
			{800, 60}, // coarse: barrier amortized, red
		},
		Seed: 23,
	}
}

// Fig7SimResult is the study output.
type Fig7SimResult struct {
	Points []Fig7SimPoint
}

// Fig7Sim simulates a synthetic workload per operating point and
// compares the simulated NL_NT outcome against the model's sign
// prediction — a spot check that the heatmap's red/blue boundary is
// real, not a model artifact.
func Fig7Sim(cfg Fig7SimConfig) (*Fig7SimResult, error) {
	points := make([]Point, len(cfg.Points))
	for i, pt := range cfg.Points {
		points[i] = Point{Config: cfg.Core, Spec: workload.Spec{Kind: "synthetic", Synthetic: &workload.SyntheticConfig{
			Units:        300,
			UnitLen:      25,
			Regions:      60,
			RegionLen:    pt.Granularity,
			AccelLatency: pt.AccelLatency,
			Seed:         cfg.Seed + int64(i),
		}}}
	}
	res, _, err := sweep(cfg.Store, cfg.Parallel, cfg.Parallel, points, nil)
	if err != nil {
		return nil, err
	}
	out := &Fig7SimResult{}
	for i, pt := range cfg.Points {
		mm := res[i].Mode(accel.NLNT)
		const band = 0.02 // treat ±2% as "at the boundary": either sign accepted
		agrees := (mm.ModelSpeedup >= 1-band && mm.SimSpeedup >= 1-band) ||
			(mm.ModelSpeedup <= 1+band && mm.SimSpeedup <= 1+band)
		out.Points = append(out.Points, Fig7SimPoint{
			Granularity:  pt.Granularity,
			AccelLatency: pt.AccelLatency,
			ModelSpeedup: mm.ModelSpeedup,
			SimSpeedup:   mm.SimSpeedup,
			SignAgrees:   agrees,
		})
	}
	return out, nil
}

// Render tabulates the check.
func (r *Fig7SimResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig 7 sign validation: simulated NL_NT outcome vs model prediction\n\n")
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		verdict := "AGREE"
		if !p.SignAgrees {
			verdict = "DISAGREE"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Granularity),
			fmt.Sprintf("%d", p.AccelLatency),
			fmt.Sprintf("%.3f", p.ModelSpeedup),
			fmt.Sprintf("%.3f", p.SimSpeedup),
			verdict,
		})
	}
	b.WriteString(textplot.Table(
		[]string{"granularity", "accel latency", "model NL_NT", "sim NL_NT", "sign"}, rows))
	return b.String()
}
