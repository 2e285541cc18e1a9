package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// storeTestWorkload is one small synthetic workload for the cache
// equivalence tests.
func storeTestWorkload(t testing.TB) *workload.Workload {
	t.Helper()
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Units: 40, UnitLen: 25, Regions: 8, RegionLen: 60,
		AccelLatency: 12, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestKeylessWorkloadRejected: a workload whose device has no DeviceKey
// is refused by the measure and static entry points at every store
// state, and nothing is run, counted or written for it.
func TestKeylessWorkloadRejected(t *testing.T) {
	dir := t.TempDir()
	disk, err := scenario.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	memory, err := scenario.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	w := storeTestWorkload(t)
	built := 0
	newDevice := w.NewDevice
	w.NewDevice = func() isa.AccelDevice { built++; return newDevice() }
	w.DeviceKey = ""
	cfg := sim.HighPerfConfig()
	for name, store := range map[string]*scenario.Store{"nil": nil, "memory": memory, "disk": disk} {
		if _, err := MeasureWorkloadStore(store, cfg, w, 1); err == nil || !strings.Contains(err.Error(), "DeviceKey") {
			t.Errorf("%s store: MeasureWorkloadStore err %v, want the DeviceKey error", name, err)
		}
		if _, err := StaticPredictWorkloadStore(store, cfg, w); err == nil || !strings.Contains(err.Error(), "DeviceKey") {
			t.Errorf("%s store: StaticPredictWorkloadStore err %v, want the DeviceKey error", name, err)
		}
		if m := store.Metrics(); m != (scenario.Metrics{}) {
			t.Errorf("%s store: a keyless workload was counted: %+v", name, m)
		}
	}
	if built != 0 {
		t.Errorf("a keyless workload built its device %d times", built)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("a keyless workload left %d entries on disk", len(entries))
	}
}

// TestMeasureWorkloadStoreMatchesDirect is the core cache contract at
// the measurement level: nil store, cold store and warm store must
// produce identical records, and the warm request must not simulate.
func TestMeasureWorkloadStoreMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated measurement")
	}
	w := storeTestWorkload(t)
	cfg := sim.HighPerfConfig()

	direct, err := MeasureWorkload(cfg, w)
	if err != nil {
		t.Fatal(err)
	}

	store, err := scenario.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := MeasureWorkloadStore(store, cfg, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := MeasureWorkloadStore(store, cfg, w, 0)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(direct.MeasureRecord, cold.MeasureRecord) {
		t.Errorf("cold store record differs from direct:\ndirect: %+v\ncold:   %+v",
			direct.MeasureRecord, cold.MeasureRecord)
	}
	if !reflect.DeepEqual(cold.MeasureRecord, warm.MeasureRecord) {
		t.Errorf("warm store record differs from cold:\ncold: %+v\nwarm: %+v",
			cold.MeasureRecord, warm.MeasureRecord)
	}

	m := store.Metrics()
	if m.MeasureMisses != 1 || m.MeasureHits != 1 {
		t.Errorf("measure counters %+v, want exactly 1 miss + 1 hit", m)
	}
	// The miss ran baseline + four modes; the hit ran nothing.
	if m.RunMisses != 5 {
		t.Errorf("run misses %d, want 5 (baseline + 4 modes)", m.RunMisses)
	}
	if m.DedupRatio() <= 0 {
		t.Errorf("dedup ratio %.2f, want > 0 after a warm request", m.DedupRatio())
	}
}

// TestDiskStoreMatchesAcrossProcesses: a figure driver fed from a
// fresh store over a populated directory must render byte-identical
// artifacts while simulating nothing.
func TestDiskStoreMatchesAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated sweep")
	}
	dir := t.TempDir()

	uncached, err := Fig4(detFig4(1))
	if err != nil {
		t.Fatal(err)
	}

	coldStore, err := scenario.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldCfg := detFig4(8)
	coldCfg.Store = coldStore
	cold, err := Fig4(coldCfg)
	if err != nil {
		t.Fatal(err)
	}

	warmStore, err := scenario.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmCfg := detFig4(1)
	warmCfg.Store = warmStore
	warm, err := Fig4(warmCfg)
	if err != nil {
		t.Fatal(err)
	}

	if a, b := uncached.CSV(), cold.CSV(); a != b {
		t.Errorf("cold-store CSV differs from uncached:\nuncached:\n%s\ncold:\n%s", a, b)
	}
	if a, b := uncached.CSV(), warm.CSV(); a != b {
		t.Errorf("warm-store CSV differs from uncached:\nuncached:\n%s\nwarm:\n%s", a, b)
	}
	if a, b := uncached.Render(), warm.Render(); a != b {
		t.Error("warm-store render differs from uncached")
	}

	m := warmStore.Metrics()
	if m.RunMisses != 0 || m.MeasureMisses != 0 {
		t.Errorf("warm store simulated: %+v, want zero misses", m)
	}
	if m.MeasureDiskHits == 0 {
		t.Errorf("warm store metrics %+v, want measure-level disk hits", m)
	}
}

// TestMeasureBlobWithoutModesIsMiss: a measure blob whose record lacks
// the four mode results is a miss, not a record a figure would later
// panic on. The measure recomputes from the run blobs, and the result
// equals a direct measurement.
func TestMeasureBlobWithoutModesIsMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated measurement")
	}
	w := storeTestWorkload(t)
	cfg := sim.HighPerfConfig()
	direct, err := MeasureWorkload(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cold, err := scenario.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MeasureWorkloadStore(cold, cfg, w, 0); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*", "measure-*.json"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("want one measure blob, found %v (err %v)", paths, err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(env["measure"], &rec); err != nil {
		t.Fatal(err)
	}
	rec["Modes"] = json.RawMessage("[]")
	if env["measure"], err = json.Marshal(rec); err != nil {
		t.Fatal(err)
	}
	if data, err = json.Marshal(env); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	warm, err := scenario.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MeasureWorkloadStore(warm, cfg, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.MeasureRecord, direct.MeasureRecord) {
		t.Errorf("record after a mode-less blob differs from direct:\ndirect: %+v\ngot:    %+v",
			direct.MeasureRecord, got.MeasureRecord)
	}
	if m := warm.Metrics(); m.MeasureDiskHits != 0 || m.MeasureMisses != 1 {
		t.Errorf("measure counters %+v, want the mode-less blob to be a miss", m)
	}
}

// The measurement-level cached-vs-uncached pair: a full five-run
// measurement versus the same request served from a warm store.

func BenchmarkMeasureWorkloadUncached(b *testing.B) {
	w := storeTestWorkload(b)
	cfg := sim.HighPerfConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MeasureWorkload(cfg, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeasureWorkloadWarm(b *testing.B) {
	w := storeTestWorkload(b)
	cfg := sim.HighPerfConfig()
	store, err := scenario.NewStore("")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := MeasureWorkloadStore(store, cfg, w, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MeasureWorkloadStore(store, cfg, w, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWarmReplayBuildsNothing: the whole -quick artifact, text and CSV
// of every Sections entry, replayed by a fresh store over its filled
// directory is answered from stored blobs alone (the static level is
// memory-only, so its misses are expected) and renders the cold bytes.
// With the recipe blobs deleted (a directory filled before the recipe
// level existed) the replay still simulates nothing, and writes the
// recipes back.
func TestWarmReplayBuildsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated sweeps")
	}
	dir := t.TempDir()
	replay := func() (*scenario.Store, string) {
		store, err := scenario.NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		o := Options{Store: store, Parallel: 2, Quick: true}
		var buf strings.Builder
		for _, sec := range Sections {
			fmt.Fprintf(&buf, "== %s\n", sec.Title)
			out, err := sec.Run(&buf, o, "all")
			if err != nil {
				t.Fatalf("%s: %v", sec.Title, err)
			}
			buf.WriteString(out.CSV)
		}
		return store, buf.String()
	}
	recipes := func() []string {
		paths, err := filepath.Glob(filepath.Join(dir, "*", "recipe-*.json"))
		if err != nil {
			t.Fatal(err)
		}
		return paths
	}

	coldStore, cold := replay()
	points := coldStore.Metrics().RecipeMisses
	if n := len(recipes()); points == 0 || int64(n) != points {
		t.Fatalf("cold replay: %d recipe misses wrote %d recipe blobs", points, n)
	}

	warmStore, warm := replay()
	if m := warmStore.Metrics(); m.RecipeMisses != 0 || m.MeasureMisses != 0 || m.RunMisses != 0 {
		t.Errorf("warm replay missed: %v", m)
	}
	if cold != warm {
		t.Errorf("warm replay renders differently:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}

	for _, p := range recipes() {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	legacyStore, legacy := replay()
	if m := legacyStore.Metrics(); m.MeasureMisses != 0 || m.RunMisses != 0 || m.RecipeMisses != points {
		t.Errorf("replay without recipes: %v, want 0 measure and run misses, %d recipe misses", m, points)
	}
	if n := len(recipes()); int64(n) != points {
		t.Errorf("replay without recipes wrote %d recipe blobs back, want %d", n, points)
	}
	if cold != legacy {
		t.Errorf("replay without recipes renders differently:\ncold:\n%s\nlegacy:\n%s", cold, legacy)
	}
}
