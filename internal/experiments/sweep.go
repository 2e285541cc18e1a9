package experiments

import (
	"context"

	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/staticmodel"
	"repro/internal/workload"
)

// Point is one simulated validation point: the workload a generator
// builds and the core it is measured on. Every simulated driver is a
// list of points plus a rendering of their measurements.
type Point struct {
	Spec   workload.Spec
	Config sim.Config
}

// sweep measures every point through the store's recipe level and
// returns the results in point order. A point whose recipe and record
// are stored builds nothing; any other job builds its workload from the
// spec, so a sweep holds at most one built workload per worker, and its
// results keep only the workloads' counts. parallel jobs run at once
// and each measurement runs inner wide (<= 0 selects GOMAXPROCS for
// either). With prune set, a static
// pre-pass first ranks every point and only the kept frontier is
// measured: the other results stay nil and the report says which
// points were kept.
func sweep(store *scenario.Store, parallel, inner int, points []Point, prune *StaticPruneConfig) ([]*WorkloadResult, *PruneReport, error) {
	kept := points
	var rep *PruneReport
	if prune != nil {
		preds, err := predict(store, parallel, points)
		if err != nil {
			return nil, nil, err
		}
		if rep, err = prune.selectPoints(preds); err != nil {
			return nil, nil, err
		}
		kept = make([]Point, len(rep.Kept))
		for k, i := range rep.Kept {
			kept[k] = points[i]
		}
	}
	res, _, err := runner.Map(context.Background(), parallel, kept,
		func(_ context.Context, _ int, p Point) (*WorkloadResult, error) {
			r := scenario.Recipe{Spec: p.Spec, Config: p.Config, MaxCycles: MaxCycles}
			rec, counts, err := store.MeasureRecipe(r, func(w *workload.Workload) (scenario.MeasureRecord, error) {
				return measureCompute(store, p.Config, w, inner)
			})
			if err != nil {
				return nil, err
			}
			return &WorkloadResult{Workload: counts, Config: p.Config, MeasureRecord: rec}, nil
		})
	if err != nil || rep == nil {
		return res, nil, err
	}
	all := make([]*WorkloadResult, len(points))
	for k, i := range rep.Kept {
		all[i] = res[k]
	}
	return all, rep, nil
}

// predict is the static pre-pass: every point's statically predicted
// mode speedups (microseconds each, no simulation), in point order.
func predict(store *scenario.Store, parallel int, points []Point) ([]*staticmodel.Prediction, error) {
	preds, _, err := runner.Map(context.Background(), parallel, points,
		func(_ context.Context, _ int, p Point) (*staticmodel.Prediction, error) {
			w, err := p.Spec.Build()
			if err != nil {
				return nil, err
			}
			return StaticPredictWorkloadStore(store, p.Config, w)
		})
	return preds, err
}
