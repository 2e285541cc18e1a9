package experiments

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func measuredHeap(t *testing.T) *WorkloadResult {
	t.Helper()
	w, err := workload.Heap(workload.HeapConfig{
		Operations: 200, FillerPerCall: 40, Prefill: 256, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureWorkload(sim.HighPerfConfig(), w)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDrainAblation(t *testing.T) {
	res := measuredHeap(t)
	rows, err := DrainAblation(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	byName := map[DrainVariant]DrainAblationRow{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	// The estimators must actually differ in the drain they charge:
	// zero < measured < full-ROB power law (the cap can tie the last
	// two only when the interval is shorter than the ROB drain).
	z, m, p := byName[DrainZero], byName[DrainMeasured], byName[DrainPowerLaw]
	if !(z.DrainUsed < m.DrainUsed && m.DrainUsed <= p.DrainUsed) {
		t.Errorf("drain ordering wrong: zero=%.1f measured=%.1f powerlaw=%.1f",
			z.DrainUsed, m.DrainUsed, p.DrainUsed)
	}
	// The measured-occupancy estimate must not be the worst of the three
	// for NL_NT (it is the harness default for a reason).
	abs := func(x float64) float64 {
		if x < 0 {
			return -x
		}
		return x
	}
	worst := abs(m.NLNTError)
	if abs(z.NLNTError) < worst && abs(p.NLNTError) < worst {
		t.Errorf("measured-occupancy estimator is the worst: %+v", rows)
	}
	out := RenderDrainAblation(rows)
	if !strings.Contains(out, "power-law-full-rob") {
		t.Error("render missing variant")
	}
}

func TestLoadOrderingAblation(t *testing.T) {
	// The heap baseline has real store->load traffic (free lists),
	// so conservative ordering must cost cycles.
	w, err := workload.Heap(workload.HeapConfig{
		Operations: 300, FillerPerCall: 10, Prefill: 256, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ab, err := LoadOrderingStore(nil, sim.HighPerfConfig(), w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ab.ConservativeCycles < ab.DecoupledCycles {
		t.Errorf("conservative ordering faster (%d < %d)?",
			ab.ConservativeCycles, ab.DecoupledCycles)
	}
	if ab.DecoupledIPC <= ab.ConservativeIPC {
		t.Errorf("decoupled AGU bought nothing: %.3f vs %.3f",
			ab.DecoupledIPC, ab.ConservativeIPC)
	}
	if !strings.Contains(ab.Render(), "decoupled store AGU") {
		t.Error("render missing policy name")
	}
}
