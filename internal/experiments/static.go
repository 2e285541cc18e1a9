package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/staticmodel"
	"repro/internal/workload"
)

// nominalAccelWeight weighs OpAccel critical-path nodes when a workload
// does not declare its accelerator latency (it will be measured during
// simulation, which the static tier by definition has not run).
const nominalAccelWeight = 10

// StaticMachine adapts a simulator configuration into the static
// model's machine description. This is the one sanctioned crossing
// between the cycle-accurate world and the simulation-free prediction
// stack (simlint R11 bans the reverse direction): widths, unit counts,
// and latencies map one-to-one; the effective load latency is derived
// from the memory hierarchy as address generation (one cycle) plus the
// L1D hit time, matching the optimistic all-hits assumption documented
// in DESIGN.md.
func StaticMachine(cfg sim.Config) staticmodel.Machine {
	return staticmodel.Machine{
		DispatchWidth: cfg.DispatchWidth,
		IssueWidth:    cfg.IssueWidth,
		CommitWidth:   cfg.CommitWidth,
		ROBSize:       cfg.ROBSize,
		FrontEndDepth: cfg.FrontEndDepth,
		CommitDelay:   cfg.CommitDelay,
		IntALUs:       cfg.IntALUs,
		IntMuls:       cfg.IntMuls,
		FPUs:          cfg.FPUs,
		MemPorts:      cfg.MemPorts,
		IntMulLatency: cfg.IntMulLatency,
		IntDivLatency: cfg.IntDivLatency,
		FPAddLatency:  cfg.FPAddLatency,
		FPMulLatency:  cfg.FPMulLatency,
		FMALatency:    cfg.FMALatency,
		FPDivLatency:  cfg.FPDivLatency,
		LoadLatency:   1 + float64(cfg.Memory.L1D.HitLatency),
		StoreLatency:  1,
		AccelLatency:  nominalAccelWeight,
	}
}

// StaticPredictWorkloadStore runs the full static pipeline for one
// (config, workload) point: profile both programs, feed the workload's
// known region metadata into the interval model, and predict all four
// mode speedups — microseconds of work, no simulation. Predictions
// cache in the store by the same canonical (config, workload) digest
// that keys the point's full measurement; a nil store computes
// directly.
func StaticPredictWorkloadStore(store *scenario.Store, cfg sim.Config, w *workload.Workload) (*staticmodel.Prediction, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	spec := scenario.MeasureSpec{Config: cfg, Workload: w, MaxCycles: MaxCycles}
	return store.StaticPrediction(spec, func() (*staticmodel.Prediction, error) {
		m := StaticMachine(cfg)
		if w.AccelLatency > 0 {
			m.AccelLatency = w.AccelLatency
		}
		base, err := staticmodel.NewProfile(w.Baseline)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s baseline profile: %w", w.Name, err)
		}
		acc, err := staticmodel.NewProfile(w.Accelerated)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s accelerated profile: %w", w.Name, err)
		}
		pred, err := staticmodel.Predict(staticmodel.Input{
			Baseline:             base,
			Accelerated:          acc,
			Acceleratable:        w.Acceleratable,
			Invocations:          w.Invocations,
			BaselineInstructions: w.BaselineInstructions,
			AccelLatency:         w.AccelLatency,
		}, m)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s static predict: %w", w.Name, err)
		}
		return pred, nil
	})
}

// StaticPruneConfig parameterizes the StaticRank pre-pass: rank every
// sweep point by its statically predicted best-mode speedup, keep the
// TopK frontier, and cycle-simulate only those plus a seeded random
// audit sample of Audit points from the pruned remainder (the audit
// keeps the oracle honest: its points land in the output table where a
// static misranking would show as a large error).
type StaticPruneConfig struct {
	// TopK is how many statically top-ranked points to simulate.
	TopK int
	// Audit is how many additional pruned points to simulate as a
	// random audit sample.
	Audit int
	// Seed drives the audit sample's deterministic PRNG.
	Seed int64
}

// Validate reports configuration errors.
func (c StaticPruneConfig) Validate() error {
	switch {
	case c.TopK < 1:
		return fmt.Errorf("experiments: static prune requires TopK >= 1")
	case c.Audit < 0:
		return fmt.Errorf("experiments: static prune requires Audit >= 0")
	}
	return nil
}

// PruneReport records what a StaticRank pre-pass kept, for the driver's
// stderr diagnostics (never stdout: pruned sweeps already differ by
// their row set; stock runs must stay byte-identical).
type PruneReport struct {
	// Evaluated is the number of sweep points statically ranked.
	Evaluated int
	// Kept are the simulated point indices in ascending order.
	Kept []int
	// Audited are the subset of Kept chosen by the audit sample.
	Audited []int
}

// String renders the one-line summary.
func (r *PruneReport) String() string {
	return fmt.Sprintf("static prune: ranked %d points, simulating %d (top-%d frontier + %d audit)",
		r.Evaluated, len(r.Kept), len(r.Kept)-len(r.Audited), len(r.Audited))
}

// selectPoints ranks the predictions and returns the indices to
// simulate, ascending. Ranking is by best-mode predicted speedup,
// descending, with index order breaking ties — fully deterministic.
// The audit sample draws without replacement from the pruned remainder
// using the seeded PRNG (simlint R1: no global rand).
func (c StaticPruneConfig) selectPoints(preds []*staticmodel.Prediction) (*PruneReport, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rep := &PruneReport{Evaluated: len(preds)}
	order := make([]int, len(preds))
	for i := range order {
		order[i] = i
	}
	score := func(i int) float64 {
		p := preds[i]
		return p.Mode(p.BestMode()).Speedup
	}
	sort.SliceStable(order, func(a, b int) bool {
		return score(order[a]) > score(order[b])
	})

	topK := c.TopK
	if topK > len(order) {
		topK = len(order)
	}
	rep.Kept = append(rep.Kept, order[:topK]...)

	rest := order[topK:]
	audit := c.Audit
	if audit > len(rest) {
		audit = len(rest)
	}
	if audit > 0 {
		rng := rand.New(rand.NewSource(c.Seed))
		for _, pi := range rng.Perm(len(rest))[:audit] {
			rep.Kept = append(rep.Kept, rest[pi])
			rep.Audited = append(rep.Audited, rest[pi])
		}
	}
	sort.Ints(rep.Kept)
	sort.Ints(rep.Audited)
	return rep, nil
}
