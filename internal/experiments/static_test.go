package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/staticmodel"
	"repro/internal/workload"
)

// staticSuite mirrors the differential suite of
// internal/sim/fastforward_test.go: the same seven workloads on the
// same cores, so the static tier is pinned on exactly the programs the
// simulator's own transparency suite exercises.
type staticSuiteEntry struct {
	name string
	cfg  sim.Config
	make func() (*workload.Workload, error)
}

func staticSuite() []staticSuiteEntry {
	return []staticSuiteEntry{
		{"synthetic", sim.HighPerfConfig(), func() (*workload.Workload, error) {
			return workload.Synthetic(workload.SyntheticConfig{
				Units: 40, UnitLen: 30, Regions: 12, RegionLen: 40,
				AccelLatency: 400, Seed: 1,
			})
		}},
		{"heap", sim.LowPerfConfig(), func() (*workload.Workload, error) {
			return workload.Heap(workload.HeapConfig{
				Operations: 120, FillerPerCall: 40, Prefill: 64, Seed: 2,
			})
		}},
		{"matmul", sim.HighPerfConfig(), func() (*workload.Workload, error) {
			return workload.MatMul(workload.MatMulConfig{N: 16, Block: 8, Tile: 4, Seed: 3})
		}},
		{"kvstore", sim.A72Config(), func() (*workload.Workload, error) {
			return workload.KVStore(workload.KVStoreConfig{
				Operations: 100, FillerPerOp: 30, Buckets: 256, Keys: 64,
				LookupPct: 70, KeyWords: 4, Seed: 4,
			})
		}},
		{"regex", sim.HighPerfConfig(), func() (*workload.Workload, error) {
			return workload.RegexMatch(workload.RegexMatchConfig{
				Pattern: "ab*c.d+", Matches: 40, FillerPerOp: 30,
				Inputs: 8, MaxLen: 24, Seed: 5,
			})
		}},
		{"stringmatch", sim.LowPerfConfig(), func() (*workload.Workload, error) {
			return workload.StringMatch(workload.StringMatchConfig{
				Comparisons: 60, FillerPerOp: 30, Dictionary: 12,
				MinWords: 4, MaxWords: 10, SharedPrefix: 3, Seed: 6,
			})
		}},
		{"multitca", sim.HighPerfConfig(), func() (*workload.Workload, error) {
			cfg := workload.DefaultMultiTCA()
			cfg.Calls = 60
			return workload.MultiTCA(cfg)
		}},
	}
}

// staticGolden pins the static tier's per-mode speedups (%.4f) for the
// differential suite. These are regression anchors, not truth: if a
// deliberate model change shifts them, re-pin from the failure output —
// but any drift without a model change is a determinism bug.
var staticGolden = map[string]string{
	// synthetic's regions are *slower* on the device (latency 400 vs ~16
	// cycles of replaced work), so all modes predict a slowdown — a
	// useful pin precisely because the sign must not flip.
	"synthetic":   "L_T=0.0904 NL_T=0.0888 L_NT=0.0843 NL_NT=0.0829",
	"heap":        "L_T=2.1996 NL_T=2.1996 L_NT=1.9392 NL_NT=1.6099",
	"matmul":      "L_T=3.0248 NL_T=2.8680 L_NT=2.8680 NL_NT=2.7267",
	"kvstore":     "L_T=1.6930 NL_T=1.6930 L_NT=1.1665 NL_NT=0.8460",
	"regex":       "L_T=3.0335 NL_T=2.9410 L_NT=1.6716 NL_NT=1.3990",
	"stringmatch": "L_T=1.9772 NL_T=1.9772 L_NT=1.3633 NL_NT=1.1129",
	"multitca":    "L_T=1.4426 NL_T=1.3324 L_NT=0.8981 NL_NT=0.8541",
}

func predictSuiteEntry(t testing.TB, e staticSuiteEntry) *staticmodel.Prediction {
	t.Helper()
	w, err := e.make()
	if err != nil {
		t.Fatal(err)
	}
	pred, err := StaticPredictWorkload(e.cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

// goldenLine renders the pinned representation: all four mode speedups
// in accel.AllModes order.
func goldenLine(pred *staticmodel.Prediction) string {
	parts := make([]string, 0, len(accel.AllModes))
	for _, m := range accel.AllModes {
		parts = append(parts, fmt.Sprintf("%s=%.4f", m, pred.Mode(m).Speedup))
	}
	return strings.Join(parts, " ")
}

// TestStaticGoldenPredictions pins the static predictions for the seven
// differential-suite workloads across all four modes.
func TestStaticGoldenPredictions(t *testing.T) {
	for _, e := range staticSuite() {
		e := e
		t.Run(e.name, func(t *testing.T) {
			got := goldenLine(predictSuiteEntry(t, e))
			want, ok := staticGolden[e.name]
			if !ok {
				t.Fatalf("no golden entry; pin with:\n\t%q: %q,", e.name, got)
			}
			if got != want {
				t.Errorf("static prediction drifted\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// suiteReports renders the full suite's predictions through a worker
// pool of the given width, through the given store (nil = direct).
func suiteReports(t *testing.T, parallel int, store *scenario.Store) []string {
	t.Helper()
	out, _, err := runner.Map(context.Background(), parallel, staticSuite(),
		func(_ context.Context, _ int, e staticSuiteEntry) (string, error) {
			w, err := e.make()
			if err != nil {
				return "", err
			}
			pred, err := StaticPredictWorkloadStore(store, e.cfg, w)
			if err != nil {
				return "", err
			}
			return pred.String(), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStaticPurityAndParallelDeterminism: the static tier is pure — the
// same inputs give byte-identical reports run-to-run, at any worker
// width, and with or without the prediction cache in the loop.
func TestStaticPurityAndParallelDeterminism(t *testing.T) {
	serial := suiteReports(t, 1, nil)
	again := suiteReports(t, 1, nil)
	wide := suiteReports(t, 8, nil)
	store, err := scenario.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	cached := suiteReports(t, 8, store)
	cachedAgain := suiteReports(t, 8, store) // all hits this time
	for i, name := range []string{"repeat", "parallel-8", "store-cold", "store-warm"} {
		other := [][]string{again, wide, cached, cachedAgain}[i]
		for j := range serial {
			if serial[j] != other[j] {
				t.Errorf("%s: report %d differs from serial baseline\n serial:\n%s\n %s:\n%s",
					name, j, serial[j], name, other[j])
			}
		}
	}
	if m := store.Metrics(); m.StaticMisses != int64(len(staticSuite())) ||
		m.StaticHits != int64(len(staticSuite())) {
		t.Errorf("store metrics %+v: want %d static misses and %d hits", m, len(staticSuite()), len(staticSuite()))
	}
}

// TestStaticErrAcceptance bounds the static tier's usefulness as a
// pruning oracle on the (quick-sized) Fig 4 and Fig 5 sweeps: mean
// absolute speedup error within 25%, and the statically chosen best
// mode matching the simulator's on at least 3 of every 4 points. The
// bounds are deliberately loose — the cycle simulator resolves stalls
// the static tier cannot see — but they are the documented floor under
// which frontier pruning stays trustworthy (DESIGN.md, "Analytical
// fast-path tier").
func TestStaticErrAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the quick Fig4/Fig5 sweeps")
	}
	store, err := scenario.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	quick := Options{Quick: true}
	res, err := StaticErr(StaticErrConfig{Fig4: quick.Fig4(), Fig5: quick.Fig5(), Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Rows); got != 6 {
		t.Fatalf("staticerr covered %d points, want 6", got)
	}
	if mae := res.MAE(); mae > 0.25 {
		t.Errorf("static-vs-sim MAE %.1f%% exceeds the 25%% acceptance bound\n%s", 100*mae, res.Render())
	}
	if agree := res.RankAgreement(); agree < 0.75 {
		t.Errorf("best-mode ranking agreement %.0f%% below the 75%% acceptance bound\n%s", 100*agree, res.Render())
	}
}

// TestStaticPruneSelection: the prune pre-pass keeps the statically
// best points plus the seeded audit sample, deterministically.
func TestStaticPruneSelection(t *testing.T) {
	mk := func(best float64) *staticmodel.Prediction {
		return &staticmodel.Prediction{Modes: []staticmodel.ModePrediction{
			{Mode: accel.LT, Speedup: best},
			{Mode: accel.NLNT, Speedup: best / 2},
		}}
	}
	preds := []*staticmodel.Prediction{mk(1.1), mk(3.0), mk(0.9), mk(2.0), mk(1.5), mk(2.5)}
	cfg := StaticPruneConfig{TopK: 2, Audit: 2, Seed: 9}
	rep, err := cfg.selectPoints(preds)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Evaluated != len(preds) || len(rep.Kept) != 4 || len(rep.Audited) != 2 {
		t.Fatalf("report %+v: want 6 evaluated, 4 kept, 2 audited", rep)
	}
	keep := map[int]bool{}
	for _, i := range rep.Kept {
		keep[i] = true
	}
	// The top-2 frontier (indices 1 and 5) must always survive.
	if !keep[1] || !keep[5] {
		t.Errorf("kept %v: frontier indices 1 and 5 must be included", rep.Kept)
	}
	rep2, err := cfg.selectPoints(preds)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rep) != fmt.Sprint(rep2) {
		t.Errorf("selection not deterministic:\n %v\n %v", rep, rep2)
	}
	if _, err := (StaticPruneConfig{TopK: 0}).selectPoints(preds); err == nil {
		t.Error("TopK 0 accepted, want error")
	}
	if _, err := (StaticPruneConfig{TopK: 1, Audit: -1}).selectPoints(preds); err == nil {
		t.Error("negative Audit accepted, want error")
	}
}

// TestFig4PrunedSubset: a pruned Fig4 run's rows are a subset of the
// unpruned run's rows, byte-identical where they overlap, and the
// frontier point (the largest sweep value, which has the best L_T
// speedup) survives.
func TestFig4PrunedSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a small Fig4 sweep twice")
	}
	store, err := scenario.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Fig4Config{
		Core: sim.HighPerfConfig(), Units: 40, UnitLen: 25, RegionLen: 60,
		AccelLatency: 12, RegionCounts: []int{2, 6, 18}, Seed: 42, Store: store,
	}
	full, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.Prune != nil {
		t.Fatal("unpruned run carries a prune report")
	}
	cfg.Prune = &StaticPruneConfig{TopK: 1, Audit: 1, Seed: 3}
	pruned, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Prune == nil || len(pruned.Rows) != 2 {
		t.Fatalf("pruned run: %d rows, report %v; want 2 rows with a report", len(pruned.Rows), pruned.Prune)
	}
	byCount := map[int]string{}
	for _, row := range full.Rows {
		byCount[row.AccelInstructions] = fmt.Sprintf("%+v", row.Result.MeasureRecord)
	}
	for _, row := range pruned.Rows {
		want, ok := byCount[row.AccelInstructions]
		if !ok {
			t.Fatalf("pruned row %d not in the full sweep", row.AccelInstructions)
		}
		if got := fmt.Sprintf("%+v", row.Result.MeasureRecord); got != want {
			t.Errorf("row %d differs between pruned and full runs", row.AccelInstructions)
		}
	}
	if pruned.Rows[len(pruned.Rows)-1].AccelInstructions != 18 {
		t.Errorf("rows %v: the statically best point (18 regions) must survive pruning",
			pruned.Rows)
	}
}
