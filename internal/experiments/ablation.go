package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/accel"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/textplot"
	"repro/internal/workload"
)

// This file holds the ablation studies for the design choices DESIGN.md
// calls out:
//
//	A1 — drain-time estimation: measured-occupancy calibration (the
//	     harness default) vs. the paper's full-ROB power law vs. assuming
//	     zero drain. Quantifies how much the NL-mode predictions depend
//	     on the estimator.
//	A2 — LSQ disambiguation: decoupled store AGU (default) vs.
//	     conservative full-store ordering. Quantifies the baseline-IPC
//	     effect of the simulator's load-ordering design choice.

// DrainVariant names one drain-estimation policy.
type DrainVariant string

// Drain estimation policies.
const (
	DrainMeasured DrainVariant = "measured-occupancy"
	DrainPowerLaw DrainVariant = "power-law-full-rob"
	DrainZero     DrainVariant = "zero"
)

// DrainAblationRow is the NL-mode model error under one policy.
type DrainAblationRow struct {
	Variant   DrainVariant
	DrainUsed float64
	NLTError  float64
	NLNTError float64
}

// DrainAblation recomputes the model's NL-mode predictions for a measured
// workload under each drain-estimation policy and reports the errors
// against the simulated speedups.
func DrainAblation(res *WorkloadResult) ([]DrainAblationRow, error) {
	simNLT := res.Mode(accel.NLT).SimSpeedup
	simNLNT := res.Mode(accel.NLNT).SimSpeedup

	variants := []struct {
		name  DrainVariant
		drain float64 // value for Params.DrainTime; 0 selects power law
	}{
		{DrainMeasured, res.Params.DrainTime},
		{DrainPowerLaw, 0},
		{DrainZero, 1e-9},
	}
	rows, _, err := runner.Map(context.Background(), 0, variants,
		func(_ context.Context, _ int, v struct {
			name  DrainVariant
			drain float64
		}) (DrainAblationRow, error) {
			p := res.Params
			p.DrainTime = v.drain
			b, err := p.Evaluate()
			if err != nil {
				return DrainAblationRow{}, fmt.Errorf("experiments: drain ablation %s: %w", v.name, err)
			}
			return DrainAblationRow{
				Variant:   v.name,
				DrainUsed: b.TDrain,
				NLTError:  (b.TBaseline/b.Times.NLT - simNLT) / simNLT,
				NLNTError: (b.TBaseline/b.Times.NLNT - simNLNT) / simNLNT,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderDrainAblation tabulates the study.
func RenderDrainAblation(rows []DrainAblationRow) string {
	var b strings.Builder
	b.WriteString("A1: drain-estimator ablation (NL-mode model error vs simulator)\n\n")
	tbl := make([][]string, 0, len(rows))
	for _, r := range rows {
		tbl = append(tbl, []string{
			string(r.Variant),
			fmt.Sprintf("%.1f", r.DrainUsed),
			fmt.Sprintf("%+.1f%%", 100*r.NLTError),
			fmt.Sprintf("%+.1f%%", 100*r.NLNTError),
		})
	}
	b.WriteString(textplot.Table([]string{"estimator", "t_drain used", "NL_T error", "NL_NT error"}, tbl))
	return b.String()
}

// LoadOrderingAblation compares baseline cycles with the decoupled store
// AGU (default) against conservative full-store ordering, on a workload
// with memory traffic.
type LoadOrderingAblation struct {
	DecoupledCycles    int64
	ConservativeCycles int64
	DecoupledIPC       float64
	ConservativeIPC    float64
}

// LoadOrderingStore runs the A2 ablation on the given workload's
// baseline through a scenario store (nil runs directly), both policy
// runs fanned out parallel wide (<= 0 selects GOMAXPROCS): the
// decoupled run is digest-identical to the workload's measurement
// baseline, so with a shared store one of the two executions is free.
func LoadOrderingStore(store *scenario.Store, cfg sim.Config, w *workload.Workload, parallel int) (*LoadOrderingAblation, error) {
	policies := []struct {
		name         string
		conservative bool
	}{
		{"decoupled", false},
		{"conservative", true},
	}
	results, _, err := runner.Map(context.Background(), parallel, policies,
		func(_ context.Context, _ int, p struct {
			name         string
			conservative bool
		}) (sim.Stats, error) {
			c := cfg
			c.ConservativeLoadOrdering = p.conservative
			stats, err := store.RunStats(scenario.Spec{
				Config:    c,
				Program:   w.Baseline,
				MaxCycles: MaxCycles,
			})
			if err != nil {
				return sim.Stats{}, fmt.Errorf("experiments: load ordering (%s): %w", p.name, err)
			}
			return stats, nil
		})
	if err != nil {
		return nil, err
	}
	dec, con := results[0], results[1]
	return &LoadOrderingAblation{
		DecoupledCycles:    dec.Cycles,
		ConservativeCycles: con.Cycles,
		DecoupledIPC:       dec.IPC(),
		ConservativeIPC:    con.IPC(),
	}, nil
}

// Render tabulates the A2 ablation.
func (a *LoadOrderingAblation) Render() string {
	var b strings.Builder
	b.WriteString("A2: LSQ disambiguation ablation (baseline run)\n\n")
	b.WriteString(textplot.Table(
		[]string{"policy", "cycles", "IPC"},
		[][]string{
			{"decoupled store AGU", fmt.Sprintf("%d", a.DecoupledCycles), fmt.Sprintf("%.3f", a.DecoupledIPC)},
			{"conservative ordering", fmt.Sprintf("%d", a.ConservativeCycles), fmt.Sprintf("%.3f", a.ConservativeIPC)},
		}))
	fmt.Fprintf(&b, "\ndecoupling the store AGU buys %.1f%% baseline IPC on this workload\n",
		100*(a.DecoupledIPC/a.ConservativeIPC-1))
	return b.String()
}
