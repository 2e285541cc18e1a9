package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/accel"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testRecipe names the small synthetic workload of testWorkload by its
// generator spec.
func testRecipe() Recipe {
	return Recipe{
		Spec: workload.Spec{Kind: "synthetic", Synthetic: &workload.SyntheticConfig{
			Units: 8, UnitLen: 12, Regions: 4, RegionLen: 30, AccelLatency: 12, Seed: 1,
		}},
		Config:    sim.HighPerfConfig(),
		MaxCycles: 1 << 30,
	}
}

// recipeMeasure is a cheap stand-in for the experiments measurement: it
// runs the workload's baseline through the store and reports one result
// per mode, so the record round-trips through a measure blob. calls
// counts its invocations.
func recipeMeasure(s *Store, calls *atomic.Int64) func(*workload.Workload) (MeasureRecord, error) {
	return func(w *workload.Workload) (MeasureRecord, error) {
		calls.Add(1)
		st, err := s.RunStats(Spec{Config: sim.HighPerfConfig(), Program: w.Baseline, MaxCycles: 1 << 30})
		if err != nil {
			return MeasureRecord{}, err
		}
		rec := MeasureRecord{BaselineCycles: st.Cycles, BaselineIPC: st.IPC()}
		for _, m := range accel.AllModes {
			rec.Modes = append(rec.Modes, ModeResult{Mode: m, SimCycles: st.Cycles, SimSpeedup: 1})
		}
		return rec, nil
	}
}

// countBuilds makes s count the workloads it builds; wrap, when set,
// rewrites each built workload.
func countBuilds(s *Store, wrap func(*workload.Workload)) *atomic.Int64 {
	var n atomic.Int64
	s.build = func(spec workload.Spec) (*workload.Workload, error) {
		n.Add(1)
		w, err := spec.Build()
		if err == nil && wrap != nil {
			wrap(w)
		}
		return w, err
	}
	return &n
}

// recipeResult is one MeasureRecipe outcome.
type recipeResult struct {
	rec    MeasureRecord
	counts workload.Counts
}

func measureRecipe(t *testing.T, s *Store, r Recipe, calls *atomic.Int64) recipeResult {
	t.Helper()
	rec, counts, err := s.MeasureRecipe(r, recipeMeasure(s, calls))
	if err != nil {
		t.Fatal(err)
	}
	return recipeResult{rec, counts}
}

// blobFiles lists the blob files of one kind under dir, or of every
// kind for "".
func blobFiles(t *testing.T, dir, kind string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && (kind == "" || strings.HasPrefix(d.Name(), kind+"-")) && strings.HasSuffix(d.Name(), ".json") {
			out = append(out, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// fillRecipe measures testRecipe into a store over dir and returns the
// result.
func fillRecipe(t *testing.T, dir string) recipeResult {
	t.Helper()
	var calls atomic.Int64
	return measureRecipe(t, newTestStore(t, dir), testRecipe(), &calls)
}

// TestRecipeHitBuildsNothing: a fresh store over a filled directory
// answers the point from the recipe and measure blobs without building
// or measuring, and a repeat in the same store is a memory hit.
func TestRecipeHitBuildsNothing(t *testing.T) {
	dir := t.TempDir()
	cold := fillRecipe(t, dir)

	s := newTestStore(t, dir)
	builds := countBuilds(s, nil)
	var calls atomic.Int64
	warm := measureRecipe(t, s, testRecipe(), &calls)
	again := measureRecipe(t, s, testRecipe(), &calls)
	if n := builds.Load(); n != 0 {
		t.Errorf("recipe hit built %d workloads, want 0", n)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("recipe hit measured %d times, want 0", n)
	}
	if !reflect.DeepEqual(cold, warm) || !reflect.DeepEqual(cold, again) {
		t.Errorf("stored answer differs from the measured one:\ncold %+v\nwarm %+v\nagain %+v", cold, warm, again)
	}
	m := s.Metrics()
	if m.RecipeDiskHits != 1 || m.RecipeHits != 1 || m.RecipeMisses != 0 {
		t.Errorf("recipe counters %+v, want 1 disk hit, 1 hit, 0 misses", m)
	}
	if m.MeasureDiskHits != 1 || m.MeasureHits != 1 || m.MeasureMisses != 0 {
		t.Errorf("measure counters %+v, want 1 disk hit, 1 hit, 0 misses", m)
	}
}

// TestRecipeMissingMeasureBlobRebuilds: a stored recipe whose measure
// blob is gone builds once, re-measures, and writes the blob back.
func TestRecipeMissingMeasureBlobRebuilds(t *testing.T) {
	dir := t.TempDir()
	cold := fillRecipe(t, dir)
	for _, p := range blobFiles(t, dir, "measure") {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}

	s := newTestStore(t, dir)
	builds := countBuilds(s, nil)
	var calls atomic.Int64
	got := measureRecipe(t, s, testRecipe(), &calls)
	if !reflect.DeepEqual(cold, got) {
		t.Errorf("re-measured answer differs:\ncold %+v\ngot  %+v", cold, got)
	}
	if builds.Load() != 1 || calls.Load() != 1 {
		t.Errorf("%d builds and %d measurements, want 1 and 1", builds.Load(), calls.Load())
	}
	if m := s.Metrics(); m.RecipeDiskHits != 1 || m.MeasureMisses != 1 {
		t.Errorf("counters %+v, want 1 recipe disk hit and 1 measure miss", m)
	}
	if n := len(blobFiles(t, dir, "measure")); n != 1 {
		t.Errorf("%d measure blobs after the re-measure, want 1", n)
	}
}

// TestStaleRecipeErrors: a recipe that names a measure digest its spec
// no longer builds to, and whose record is gone, fails with the
// GeneratorVersion error and writes nothing. Two ways to get there: a
// generator whose output moved, and a forged recipe blob.
func TestStaleRecipeErrors(t *testing.T) {
	generatorMoved := func(t *testing.T, dir string) *Store {
		for _, p := range blobFiles(t, dir, "measure") {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		}
		s := newTestStore(t, dir)
		countBuilds(s, func(w *workload.Workload) { w.AccelLatency++ })
		return s
	}
	forged := func(t *testing.T, dir string) *Store {
		path := blobFiles(t, dir, "recipe")[0]
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var other Digest
		other[0] = 1
		i := bytes.Index(data, []byte(`"measure":"`)) + len(`"measure":"`)
		data = append(append(data[:i:i], other.String()...), data[i+2*len(other):]...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return newTestStore(t, dir)
	}
	for name, stale := range map[string]func(*testing.T, string) *Store{
		"generator-moved": generatorMoved,
		"forged":          forged,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fillRecipe(t, dir)
			s := stale(t, dir)
			before := blobFiles(t, dir, "")
			if len(before) == 0 {
				t.Fatal("filled directory holds no blobs")
			}
			var calls atomic.Int64
			_, _, err := s.MeasureRecipe(testRecipe(), recipeMeasure(s, &calls))
			if err == nil || !strings.Contains(err.Error(), "workload.GeneratorVersion") {
				t.Fatalf("stale recipe: err %v, want the GeneratorVersion error", err)
			}
			if calls.Load() != 0 {
				t.Error("a stale recipe was measured")
			}
			if after := blobFiles(t, dir, ""); !reflect.DeepEqual(before, after) {
				t.Errorf("stale recipe wrote blobs: before %v, after %v", before, after)
			}
			if m := s.Metrics(); m.BytesWritten != 0 {
				t.Errorf("stale recipe wrote %d bytes", m.BytesWritten)
			}
		})
	}
}

// TestBadRecipeBlobsAreMisses: a recipe blob that is corrupt, from
// another scheme or kind, digest-mismatched, or carries a malformed
// measure digest or impossible counts is a miss: the point builds and
// measures again, with no error.
func TestBadRecipeBlobsAreMisses(t *testing.T) {
	swap := func(field, to string) func(*testing.T, []byte) []byte {
		return func(t *testing.T, valid []byte) []byte {
			out := bytes.Replace(valid, []byte(field), []byte(to), 1)
			if bytes.Equal(out, valid) {
				t.Fatalf("blob has no %s", field)
			}
			return out
		}
	}
	d, _ := testRecipe().Digest()
	corruptions := map[string]func(*testing.T, []byte) []byte{
		"garbage":        func(*testing.T, []byte) []byte { return []byte("not json at all {") },
		"truncated":      func(_ *testing.T, valid []byte) []byte { return valid[:len(valid)/2] },
		"stale-scheme":   swap(fmt.Sprintf(`"scheme":%d`, SchemeVersion), `"scheme":999`),
		"wrong-kind":     swap(`"kind":"recipe"`, `"kind":"measure"`),
		"wrong-digest":   swap(d.String(), strings.Repeat("0", 64)),
		"short-measure":  swap(`"measure":"`, `"measure":"ab`),
		"hex-measure":    swap(`"measure":"`, `"measure":"zz`),
		"no-invocations": swap(`"Invocations":`, `"Invocations":0,"x":`),
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			want := fillRecipe(t, dir)
			path := blobFiles(t, dir, "recipe")[0]
			valid, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(t, valid), 0o644); err != nil {
				t.Fatal(err)
			}
			s := newTestStore(t, dir)
			builds := countBuilds(s, nil)
			var calls atomic.Int64
			got := measureRecipe(t, s, testRecipe(), &calls)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("answer after a bad recipe blob differs:\nwant %+v\ngot  %+v", want, got)
			}
			if m := s.Metrics(); m.RecipeDiskHits != 0 || m.RecipeMisses != 1 || builds.Load() != 1 {
				t.Errorf("counters %+v with %d builds, want the bad blob to be a miss that builds once", m, builds.Load())
			}
		})
	}
}

// TestNilStoreRecipeMatchesStore: the uncached reference path, a cold
// store and a warm store give the same record and counts.
func TestNilStoreRecipeMatchesStore(t *testing.T) {
	var calls atomic.Int64
	direct := measureRecipe(t, nil, testRecipe(), &calls)
	dir := t.TempDir()
	cold := fillRecipe(t, dir)
	warm := measureRecipe(t, newTestStore(t, dir), testRecipe(), &calls)
	if !reflect.DeepEqual(direct, cold) || !reflect.DeepEqual(cold, warm) {
		t.Errorf("nil, cold and warm stores disagree:\nnil  %+v\ncold %+v\nwarm %+v", direct, cold, warm)
	}
	w, err := testRecipe().Spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if direct.counts != w.Counts() {
		t.Errorf("counts %+v, want the built workload's %+v", direct.counts, w.Counts())
	}
}

// TestRecipeRejectsKeylessDevice: a generator that stamps no DeviceKey
// builds an invalid workload, so the point is an error on memory and
// disk stores: nothing is measured, counted below the recipe level or
// written, and the recipe level remembers the error in memory like any
// build error. The nil store takes no substitute builder; it validates
// through the same buildWorkload.
func TestRecipeRejectsKeylessDevice(t *testing.T) {
	for name, dir := range map[string]string{"memory": "", "disk": t.TempDir()} {
		t.Run(name, func(t *testing.T) {
			s := newTestStore(t, dir)
			builds := countBuilds(s, func(w *workload.Workload) { w.DeviceKey = "" })
			var calls atomic.Int64
			for i := 0; i < 2; i++ {
				_, _, err := s.MeasureRecipe(testRecipe(), recipeMeasure(s, &calls))
				if err == nil || !strings.Contains(err.Error(), "DeviceKey") {
					t.Fatalf("call %d: err %v, want the DeviceKey error", i, err)
				}
			}
			if builds.Load() != 1 || calls.Load() != 0 {
				t.Errorf("%d builds and %d measurements, want 1 and 0", builds.Load(), calls.Load())
			}
			m := s.Metrics()
			if m.MeasureMisses+m.MeasureHits+m.RunMisses+m.RunHits != 0 || m.BytesWritten != 0 {
				t.Errorf("a keyless point was measured or written: %+v", m)
			}
			if dir != "" {
				if n := len(blobFiles(t, dir, "")); n != 0 {
					t.Errorf("a keyless point left %d blobs on disk", n)
				}
			}
		})
	}
}

// TestRecipeBuildErrorCachedInMemoryOnly: a spec the generator rejects
// fails once, is remembered, and never gets a recipe blob.
func TestRecipeBuildErrorCachedInMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, dir)
	builds := countBuilds(s, nil)
	r := testRecipe()
	r.Spec.Synthetic.Units = 0
	var calls atomic.Int64
	for i := 0; i < 2; i++ {
		if _, _, err := s.MeasureRecipe(r, recipeMeasure(s, &calls)); err == nil {
			t.Fatal("want the generator's error")
		}
	}
	if builds.Load() != 1 {
		t.Errorf("%d builds, want 1 (error cached)", builds.Load())
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("a rejected spec left %d entries on disk", len(entries))
	}
}

// TestRecipeSingleflight: concurrent identical recipes on a cold store
// build the workload once and miss each level once; everyone else is
// served the one measurement.
func TestRecipeSingleflight(t *testing.T) {
	s := newTestStore(t, t.TempDir())
	builds := countBuilds(s, nil)
	var calls atomic.Int64
	const n = 8
	results := make([]recipeResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, counts, err := s.MeasureRecipe(testRecipe(), recipeMeasure(s, &calls))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = recipeResult{rec, counts}
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("goroutine %d got a different answer", i)
		}
	}
	if builds.Load() != 1 || calls.Load() != 1 {
		t.Errorf("%d builds and %d measurements, want 1 and 1", builds.Load(), calls.Load())
	}
	m := s.Metrics()
	if m.RecipeMisses != 1 || m.MeasureMisses != 1 {
		t.Errorf("counters %+v, want 1 recipe miss and 1 measure miss", m)
	}
	if m.RecipeHits+m.RecipeCoalesced != n-1 {
		t.Errorf("recipe hits %d + coalesced %d, want %d", m.RecipeHits, m.RecipeCoalesced, n-1)
	}
}

// TestGoldenRecipeDigest pins the recipe encoding for the heap default
// on the HP core. A failure means the encoding moved: GeneratorVersion,
// the spec's JSON, the config bytes or the cycle bound. That is only
// acceptable with a SchemeVersion or GeneratorVersion bump.
func TestGoldenRecipeDigest(t *testing.T) {
	spec, err := workload.DefaultSpec("heap")
	if err != nil {
		t.Fatal(err)
	}
	r := Recipe{Spec: spec, Config: sim.HighPerfConfig(), MaxCycles: 4_000_000_000}
	d, ok := r.Digest()
	if !ok {
		t.Fatal("the heap default has no recipe digest")
	}
	if got, want := d.String(), "a27de65616de4915f5ea6f12f196350243463ba87a941fd12c3e23cdb07fd96b"; got != want {
		t.Errorf("recipe digest %s, want %s", got, want)
	}
}

// TestRecipeDigestLossyJSON: a string that is not valid UTF-8 marshals
// lossily, so such a spec has no recipe identity: two of them would
// share the JSON bytes. MeasureRecipe refuses it at every store state
// without building, measuring, counting or writing.
func TestRecipeDigestLossyJSON(t *testing.T) {
	spec, err := workload.DefaultSpec("regexmatch")
	if err != nil {
		t.Fatal(err)
	}
	a, b := spec, spec
	ac, bc := *spec.RegexMatch, *spec.RegexMatch
	ac.Pattern, bc.Pattern = "a\xff", "a\xfe"
	a.RegexMatch, b.RegexMatch = &ac, &bc
	dir := t.TempDir()
	for _, spec := range []workload.Spec{a, b} {
		r := Recipe{Spec: spec, Config: sim.HighPerfConfig(), MaxCycles: 1}
		if _, ok := r.Digest(); ok {
			t.Errorf("pattern %q: lossy spec JSON got a recipe digest", spec.RegexMatch.Pattern)
		}
		for name, s := range map[string]*Store{"nil": nil, "memory": newTestStore(t, ""), "disk": newTestStore(t, dir)} {
			var calls atomic.Int64
			if _, _, err := s.MeasureRecipe(r, recipeMeasure(s, &calls)); err == nil || !strings.Contains(err.Error(), "recipe identity") {
				t.Errorf("%s store, pattern %q: err %v, want the recipe identity error", name, spec.RegexMatch.Pattern, err)
			}
			if calls.Load() != 0 {
				t.Errorf("%s store, pattern %q: a lossy spec was measured", name, spec.RegexMatch.Pattern)
			}
			if m := s.Metrics(); m != (Metrics{}) {
				t.Errorf("%s store, pattern %q: a lossy spec was counted: %+v", name, spec.RegexMatch.Pattern, m)
			}
		}
	}
	if n := len(blobFiles(t, dir, "")); n != 0 {
		t.Errorf("a lossy spec left %d blobs on disk", n)
	}
}

// TestRecipeDigestDistinguishesEverySpecField is the recipe twin of
// TestDigestDistinguishesEveryConfigField: for every workload kind it
// perturbs the kind and each leaf of the kind's config — each element of
// a slice of structs too — then each leaf of the core config and the
// cycle bound, one at a time, and asserts the recipe digest moves. A
// config field the spec's JSON drops (tagged `json:"-"`, or unexported)
// fails here.
func TestRecipeDigestDistinguishesEverySpecField(t *testing.T) {
	digest := func(t *testing.T, r Recipe) Digest {
		t.Helper()
		d, ok := r.Digest()
		if !ok {
			t.Fatalf("%+v has no recipe digest", r.Spec)
		}
		return d
	}
	leaves := 0
	for _, kind := range workload.Kinds() {
		spec, err := workload.DefaultSpec(kind)
		if err != nil {
			t.Fatal(err)
		}
		base := Recipe{Spec: spec, Config: sim.HighPerfConfig(), MaxCycles: 1 << 30}
		want := digest(t, base)
		mut := base
		mut.Spec.Kind += "x"
		if digest(t, mut) == want {
			t.Errorf("%s: the kind did not move the recipe digest", kind)
		}
		for _, path := range configLeaves(specConfig(t, spec)) {
			mut := base
			mut.Spec = cloneSpec(t, spec)
			perturb(t, leafAt(specConfig(t, mut.Spec), path), path)
			if digest(t, mut) == want {
				t.Errorf("%s %s: perturbing the field did not move the recipe digest", kind, path)
			}
			leaves++
		}
	}
	if leaves < 50 {
		t.Fatalf("walked only %d workload config leaves; the walk is broken", leaves)
	}

	base := testRecipe()
	want := digest(t, base)
	var cfgLeaves []string
	collectLeaves(reflect.TypeOf(sim.Config{}), "", &cfgLeaves)
	for _, path := range cfgLeaves {
		mut := base
		perturb(t, fieldByPath(reflect.ValueOf(&mut.Config).Elem(), path), path)
		if moved := digest(t, mut) != want; moved == exemptDigestFields[path] {
			t.Errorf("Config.%s: recipe digest moved=%v, want %v", path, moved, !exemptDigestFields[path])
		}
	}
	mut := base
	mut.MaxCycles++
	if digest(t, mut) == want {
		t.Error("MaxCycles did not move the recipe digest")
	}
}

// specConfig is the settable config struct the spec's kind points to.
func specConfig(t *testing.T, spec workload.Spec) reflect.Value {
	t.Helper()
	v := reflect.ValueOf(spec)
	for i := 1; i < v.NumField(); i++ {
		if !v.Field(i).IsNil() {
			return v.Field(i).Elem()
		}
	}
	t.Fatalf("%s spec without a config", spec.Kind)
	return reflect.Value{}
}

// cloneSpec deep-copies a spec, so perturbing it leaves the original
// and the registry defaults alone.
func cloneSpec(t *testing.T, spec workload.Spec) workload.Spec {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var out workload.Spec
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// configLeaves lists the perturbable leaves of a workload config: its
// scalar fields as collectLeaves finds them, with a slice of structs
// expanded into one path per element leaf ("Functions[2].Weight").
func configLeaves(v reflect.Value) []string {
	var flat, out []string
	collectLeaves(v.Type(), "", &flat)
	for _, path := range flat {
		f := fieldByPath(v, path)
		if f.Kind() != reflect.Slice || f.Type().Elem().Kind() != reflect.Struct {
			out = append(out, path)
			continue
		}
		var elem []string
		collectLeaves(f.Type().Elem(), "", &elem)
		for i := 0; i < f.Len(); i++ {
			for _, e := range elem {
				out = append(out, fmt.Sprintf("%s[%d].%s", path, i, e))
			}
		}
	}
	return out
}

// leafAt resolves a configLeaves path.
func leafAt(v reflect.Value, path string) reflect.Value {
	head, rest, ok := strings.Cut(path, "[")
	if !ok {
		return fieldByPath(v, path)
	}
	idx, tail, _ := strings.Cut(rest, "].")
	i, _ := strconv.Atoi(idx)
	return fieldByPath(fieldByPath(v, head).Index(i), tail)
}
