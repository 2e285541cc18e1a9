package scenario

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/accel"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// testWorkload builds a small synthetic workload: a device-bearing
// accelerated program with a canonical device key, cheap enough for
// many runs per test.
func testWorkload(t testing.TB) *workload.Workload {
	t.Helper()
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Units: 8, UnitLen: 12, Regions: 4, RegionLen: 30,
		AccelLatency: 12, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func baselineSpec(t testing.TB) Spec {
	return Spec{Config: sim.HighPerfConfig(), Program: testWorkload(t).Baseline, MaxCycles: 1 << 30}
}

func accelSpec(t testing.TB) Spec {
	w := testWorkload(t)
	return Spec{
		Config:    sim.HighPerfConfig(),
		Program:   w.Accelerated,
		NewDevice: w.NewDevice,
		DeviceKey: w.DeviceKey,
		MaxCycles: 1 << 30,
	}
}

func newTestStore(t testing.TB, dir string) *Store {
	t.Helper()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestNilStoreExecutesDirectly: a nil store is the no-cache mode every
// pre-store call path compiles down to.
func TestNilStoreExecutesDirectly(t *testing.T) {
	var s *Store
	spec := baselineSpec(t)
	direct, err := spec.run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.RunStats(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, direct.Clone()) {
		t.Error("nil store run differs from direct execution")
	}
	calls := 0
	if _, err := s.Measure(MeasureSpec{}, func() (MeasureRecord, error) {
		calls++
		return MeasureRecord{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("nil store Measure: compute called %d times, want 1", calls)
	}
	if m := s.Metrics(); m != (Metrics{}) {
		t.Errorf("nil store metrics should be zero, got %+v", m)
	}
}

// TestRunStatsMemoryCache: a repeated spec is served from memory with
// identical stats, and the counters say so.
func TestRunStatsMemoryCache(t *testing.T) {
	s := newTestStore(t, "")
	spec := accelSpec(t)
	first, err := s.RunStats(spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.RunStats(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cached stats differ from first execution")
	}
	m := s.Metrics()
	if m.RunMisses != 1 || m.RunHits != 1 || m.RunDiskHits != 0 {
		t.Errorf("metrics: %+v, want 1 miss / 1 hit / 0 disk", m)
	}
	if m.DedupRatio() != 0.5 {
		t.Errorf("dedup ratio %.2f, want 0.50", m.DedupRatio())
	}
}

// TestRunStatsReturnsPrivateCopies: mutating a returned Stats must not
// leak into later cache hits.
func TestRunStatsReturnsPrivateCopies(t *testing.T) {
	s := newTestStore(t, "")
	spec := accelSpec(t)
	spec.Config.RecordAccelEvents = true // populate the AccelEvents slice
	first, err := s.RunStats(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.AccelEvents) == 0 {
		t.Fatal("expected recorded accel events")
	}
	first.Cycles = -1
	first.AccelEvents[0].Start = -1
	second, err := s.RunStats(spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cycles == -1 || second.AccelEvents[0].Start == -1 {
		t.Error("cache entry aliased by a caller's mutation")
	}
}

// TestRunStatsSingleflight: the same spec requested from many
// goroutines executes exactly once; distinct specs do not serialize
// each other. Run under -race this is also the store's data-race test.
func TestRunStatsSingleflight(t *testing.T) {
	s := newTestStore(t, "")
	same := accelSpec(t)
	const n = 16
	results := make([]sim.Stats, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half the goroutines ask for the shared spec, half for a
			// private variant (distinct MaxCycles → distinct digest).
			spec := same
			if i%2 == 1 {
				spec.MaxCycles += int64(i)
			}
			st, err := s.RunStats(spec)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = st
		}(i)
	}
	wg.Wait()
	for i := 2; i < n; i += 2 {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("goroutine %d saw different stats for an identical spec", i)
		}
	}
	m := s.Metrics()
	// 1 + n/2 distinct digests; every duplicate request is served
	// without executing — as a coalesced join if it arrived while the
	// first execution was in flight, as a memory hit otherwise (the
	// split depends on scheduling, the sum does not).
	if want := int64(1 + n/2); m.RunMisses != want {
		t.Errorf("misses %d, want %d", m.RunMisses, want)
	}
	if want := int64(n/2 - 1); m.RunHits+m.RunCoalesced != want {
		t.Errorf("hits %d + coalesced %d, want %d total", m.RunHits, m.RunCoalesced, want)
	}
}

// TestRunStatsRejectsKeylessDevice: a device without a key is an error
// at every store state — nil, memory and disk — and nothing runs, is
// counted or is written for it.
func TestRunStatsRejectsKeylessDevice(t *testing.T) {
	dir := t.TempDir()
	for name, s := range map[string]*Store{
		"nil":    nil,
		"memory": newTestStore(t, ""),
		"disk":   newTestStore(t, dir),
	} {
		t.Run(name, func(t *testing.T) {
			spec := accelSpec(t)
			built := 0
			newDevice := spec.NewDevice
			spec.NewDevice = func() isa.AccelDevice { built++; return newDevice() }
			spec.DeviceKey = ""
			for i := 0; i < 2; i++ {
				if _, err := s.RunStats(spec); err == nil || !strings.Contains(err.Error(), "DeviceKey") {
					t.Fatalf("call %d: err %v, want the DeviceKey error", i, err)
				}
			}
			if built != 0 {
				t.Errorf("a keyless spec built its device %d times", built)
			}
			if m := s.Metrics(); m != (Metrics{}) {
				t.Errorf("a keyless spec was counted: %+v", m)
			}
		})
	}
	if n := len(blobFiles(t, dir, "")); n != 0 {
		t.Errorf("a keyless spec left %d blobs on disk", n)
	}
}

// TestDiskRoundtrip: a second store over the same directory — a fresh
// process in disguise — serves the run from disk, byte-identically.
func TestDiskRoundtrip(t *testing.T) {
	dir := t.TempDir()
	spec := accelSpec(t)

	cold := newTestStore(t, dir)
	first, err := cold.RunStats(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m := cold.Metrics(); m.BytesWritten == 0 {
		t.Fatal("cold store wrote no blob")
	}

	warm := newTestStore(t, dir)
	second, err := warm.RunStats(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("disk-served stats differ from the original execution")
	}
	m := warm.Metrics()
	if m.RunDiskHits != 1 || m.RunMisses != 0 {
		t.Errorf("warm metrics: %+v, want 1 disk hit / 0 misses", m)
	}
	if m.BytesRead == 0 {
		t.Error("disk hit read no bytes")
	}
}

// TestBadBlobsAreMisses: corrupt, truncated, stale-scheme and
// digest-mismatched blobs must silently re-execute, never error.
func TestBadBlobsAreMisses(t *testing.T) {
	spec := accelSpec(t)
	want, err := spec.run()
	if err != nil {
		t.Fatal(err)
	}

	// swap rewrites one envelope field, so the blob differs from a
	// valid one only there.
	swap := func(field, to string) func(*testing.T, []byte) []byte {
		return func(t *testing.T, valid []byte) []byte {
			out := bytes.Replace(valid, []byte(field), []byte(to), 1)
			if bytes.Equal(out, valid) {
				t.Fatalf("blob has no %s", field)
			}
			return out
		}
	}
	corruptions := map[string]func(t *testing.T, valid []byte) []byte{
		"garbage":      func(*testing.T, []byte) []byte { return []byte("not json at all {") },
		"truncated":    func(_ *testing.T, valid []byte) []byte { return valid[:len(valid)/2] },
		"empty":        func(*testing.T, []byte) []byte { return nil },
		"stale-scheme": swap(fmt.Sprintf(`"scheme":%d`, SchemeVersion), `"scheme":999`),
		"wrong-kind":   swap(`"kind":"run"`, `"kind":"measure"`),
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			seed := newTestStore(t, dir)
			if _, err := seed.RunStats(spec); err != nil {
				t.Fatal(err)
			}
			path := seed.blobPath("run", spec.Digest())
			valid, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(t, valid), 0o644); err != nil {
				t.Fatal(err)
			}
			s := newTestStore(t, dir)
			got, err := s.RunStats(spec)
			if err != nil {
				t.Fatalf("corrupt blob surfaced an error: %v", err)
			}
			if !reflect.DeepEqual(got, want.Clone()) {
				t.Error("re-executed stats differ from direct execution")
			}
			m := s.Metrics()
			if m.RunDiskHits != 0 || m.RunMisses != 1 {
				t.Errorf("metrics: %+v, want the corrupt blob to be a miss", m)
			}
		})
	}
}

// TestMeasureCacheAndClone: measure-level hits skip compute entirely,
// and the returned record's slice is a private copy.
func TestMeasureCacheAndClone(t *testing.T) {
	s := newTestStore(t, "")
	spec := MeasureSpec{Config: sim.HighPerfConfig(), Workload: testWorkload(t), MaxCycles: 1 << 30}
	calls := 0
	compute := func() (MeasureRecord, error) {
		calls++
		return MeasureRecord{
			BaselineCycles: 123,
			Modes:          []ModeResult{{SimCycles: 7}},
		}, nil
	}
	first, err := s.Measure(spec, compute)
	if err != nil {
		t.Fatal(err)
	}
	first.Modes[0].SimCycles = -1
	second, err := s.Measure(spec, compute)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("compute called %d times, want 1", calls)
	}
	if second.Modes[0].SimCycles != 7 {
		t.Error("cached record aliased by a caller's mutation")
	}
	m := s.Metrics()
	if m.MeasureMisses != 1 || m.MeasureHits != 1 {
		t.Errorf("metrics: %+v, want 1 measure miss / 1 hit", m)
	}
}

// TestMeasureErrorCachedInMemoryOnly: a failed computation is
// remembered (the spec is deterministic — retrying cannot help) but
// never written to disk.
func TestMeasureErrorCachedInMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, dir)
	spec := MeasureSpec{Config: sim.HighPerfConfig(), Workload: testWorkload(t), MaxCycles: 1 << 30}
	calls := 0
	compute := func() (MeasureRecord, error) {
		calls++
		return MeasureRecord{}, os.ErrDeadlineExceeded
	}
	if _, err := s.Measure(spec, compute); err == nil {
		t.Fatal("want error from compute")
	}
	if _, err := s.Measure(spec, compute); err == nil {
		t.Fatal("want cached error on second request")
	}
	if calls != 1 {
		t.Errorf("compute called %d times, want 1 (error cached)", calls)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("error run left %d files on disk, want none", len(entries))
	}
}

// TestPanickingComputeRecordsError: a compute that panics must not leave
// its entry looking complete with a zero value and no error. The
// panicking caller unwinds; every later caller for the digest gets the
// panic as an error, and nothing is saved.
func TestPanickingComputeRecordsError(t *testing.T) {
	var l level[int]
	var d Digest
	saved := 0
	save := func(int) { saved++ }
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the panicking caller did not unwind")
			}
		}()
		l.get(d, nil, func() (int, error) { panic("generator bug") }, save)
	}()
	v, err := l.get(d, nil, func() (int, error) { return 42, nil }, save)
	if err == nil || !strings.Contains(err.Error(), "generator bug") {
		t.Errorf("after a panicking compute: v=%d err=%v, want the panic as an error", v, err)
	}
	if saved != 0 {
		t.Errorf("a panicking compute saved %d results", saved)
	}
}

// FuzzLoadBlob feeds arbitrary bytes to the disk layer as the blob file
// of every kind under one fixed digest, then loads each through the
// store. The contract: every input is a miss or a well-formed value —
// a measure record with one result per mode, a decoded checkpoint, a
// recipe with possible counts — and never a panic or a hang. The seed
// corpus is one real blob of each kind, re-addressed to the digest.
func FuzzLoadBlob(f *testing.F) {
	var d Digest
	for i := range d {
		d[i] = 0xab
	}
	for _, blob := range realBlobs(f, d) {
		f.Add(blob)
	}
	f.Add([]byte(`{"scheme":3}`))
	s := newTestStore(f, f.TempDir())
	kinds := []string{"run", "measure", "ckpt", "recipe"}
	for _, kind := range kinds {
		if err := os.MkdirAll(filepath.Dir(s.blobPath(kind, d)), 0o755); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range kinds {
			if err := os.WriteFile(s.blobPath(kind, d), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s.loadRunBlob(d)
		if rec, ok := s.loadMeasureBlob(d); ok && len(rec.Modes) != len(accel.AllModes) {
			t.Errorf("measure hit with %d mode results", len(rec.Modes))
		}
		if ck, ok := s.loadCkptBlob(d); ok && ck == nil {
			t.Error("checkpoint hit without a checkpoint")
		}
		if rv, ok := s.loadRecipeBlob(d); ok && rv.counts.Validate() != nil {
			t.Errorf("recipe hit with impossible counts %+v", rv.counts)
		}
	})
}

// realBlobs fills a store with one blob of each kind — a forked run
// writes a run and a checkpoint blob, a recipe a recipe and a measure
// blob — and returns them re-addressed to d, so each loads as a hit.
func realBlobs(f *testing.F, d Digest) [][]byte {
	dir := f.TempDir()
	s := newTestStore(f, dir)
	if _, err := s.RunStats(warmupHeavySpec(f, accel.LT, 2000)); err != nil {
		f.Fatal(err)
	}
	var calls atomic.Int64
	if _, _, err := s.MeasureRecipe(testRecipe(), recipeMeasure(s, &calls)); err != nil {
		f.Fatal(err)
	}
	var blobs [][]byte
	seen := map[string]bool{}
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		kind, hexDigest, _ := strings.Cut(strings.TrimSuffix(e.Name(), ".json"), "-")
		if seen[kind] {
			return nil
		}
		seen[kind] = true
		data, err := os.ReadFile(path)
		blobs = append(blobs, bytes.ReplaceAll(data, []byte(hexDigest), []byte(d.String())))
		return err
	})
	if err != nil {
		f.Fatal(err)
	}
	if len(seen) != 4 {
		f.Fatalf("filled store holds blob kinds %v, want run, measure, ckpt and recipe", seen)
	}
	return blobs
}
