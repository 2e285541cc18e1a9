package scenario

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/accel"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// warmupHeavySpec builds a spec whose program spins a long scalar
// warmup loop before its accelerator region — the shape warm-checkpoint
// forking exists for. iters=2000 gives a prefix comfortably past
// minForkCycles.
func warmupHeavySpec(t testing.TB, mode accel.Mode, iters int64) Spec {
	t.Helper()
	b := isa.NewBuilder()
	b.MovI(isa.R(1), 0)
	b.MovI(isa.R(2), iters)
	b.Label("warm")
	b.AddI(isa.R(3), isa.R(3), 7)
	b.AddI(isa.R(1), isa.R(1), 1)
	b.Blt(isa.R(1), isa.R(2), "warm")
	b.MovI(isa.R(4), 0)
	b.MovI(isa.R(5), 20)
	b.Label("accel")
	b.Accel(isa.R(6), 0, isa.R(3))
	b.AddI(isa.R(4), isa.R(4), 1)
	b.Blt(isa.R(4), isa.R(5), "accel")
	b.Halt()
	cfg := sim.HighPerfConfig()
	cfg.Mode = mode
	return Spec{
		Config:    cfg,
		Program:   b.MustBuild(),
		NewDevice: func() isa.AccelDevice { return accel.NewFixedLatency(40) },
		DeviceKey: "fixed:lat=40",
		MaxCycles: 1 << 30,
	}
}

// TestCheckpointForkMatchesDirectRun: a sweep over all four modes must
// fork every variant from ONE shared warmup, and each forked result
// must be deeply equal to a direct (never-paused) run of the same spec.
func TestCheckpointForkMatchesDirectRun(t *testing.T) {
	s := newTestStore(t, "")
	for _, m := range accel.AllModes {
		spec := warmupHeavySpec(t, m, 2000)
		got, err := s.RunStats(spec)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		want, err := spec.run()
		if err != nil {
			t.Fatalf("%s direct: %v", m, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: forked stats differ from direct run:\nforked: %v\ndirect: %v", m, got, want)
		}
	}
	mtr := s.Metrics()
	if mtr.CkptWarmups != 1 {
		t.Errorf("warmup prefix executed %d times for one family, want 1", mtr.CkptWarmups)
	}
	if mtr.CkptForks != int64(len(accel.AllModes)) {
		t.Errorf("%d forks, want %d (one per mode)", mtr.CkptForks, len(accel.AllModes))
	}
}

// TestCheckpointForkDisabled: -no-ckpt-fork must bypass the warm path
// entirely and still produce identical results.
func TestCheckpointForkDisabled(t *testing.T) {
	forked := newTestStore(t, "")
	direct := newTestStore(t, "")
	direct.DisableCheckpointForking()
	spec := warmupHeavySpec(t, accel.LT, 2000)
	a, err := forked.RunStats(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := direct.RunStats(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("checkpoint forking changed the cached result")
	}
	if m := direct.Metrics(); m.CkptWarmups != 0 || m.CkptForks != 0 {
		t.Errorf("disabled store still used the checkpoint path: %+v", m)
	}
	if m := forked.Metrics(); m.CkptForks != 1 {
		t.Errorf("enabled store did not fork: %+v", m)
	}
}

// TestCheckpointShortWarmupNotForked: prefixes below minForkCycles
// negative-cache and fall back to direct runs — once per family, not
// once per member.
func TestCheckpointShortWarmupNotForked(t *testing.T) {
	s := newTestStore(t, "")
	for _, m := range accel.AllModes {
		spec := warmupHeavySpec(t, m, 4) // couple dozen warmup cycles
		if _, err := s.RunStats(spec); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
	mtr := s.Metrics()
	if mtr.CkptForks != 0 {
		t.Errorf("short warmup forked %d times, want 0", mtr.CkptForks)
	}
	if mtr.CkptWarmups != 1 {
		t.Errorf("unforkable family probed %d times, want 1 (negative cache)", mtr.CkptWarmups)
	}
}

// TestCheckpointBaselineNotForked: programs without accelerator
// instructions never touch the checkpoint machinery.
func TestCheckpointBaselineNotForked(t *testing.T) {
	s := newTestStore(t, "")
	if _, err := s.RunStats(baselineSpec(t)); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.CkptWarmups != 0 || m.CkptForks != 0 {
		t.Errorf("baseline run touched the checkpoint path: %+v", m)
	}
}

// TestCheckpointDiskBlobSharedAcrossStores: a second store over the
// same directory loads the warm checkpoint from disk instead of
// re-running the warmup, and still produces identical results.
func TestCheckpointDiskBlobSharedAcrossStores(t *testing.T) {
	dir := t.TempDir()
	first := newTestStore(t, dir)
	spec := warmupHeavySpec(t, accel.LT, 2000)
	want, err := first.RunStats(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m := first.Metrics(); m.CkptWarmups != 1 {
		t.Fatalf("first store: %d warmups, want 1", m.CkptWarmups)
	}

	second := newTestStore(t, dir)
	// A different mode in the same warmup family: the run-level blob
	// differs, the checkpoint blob is shared.
	other := warmupHeavySpec(t, accel.NLNT, 2000)
	got, err := second.RunStats(other)
	if err != nil {
		t.Fatal(err)
	}
	mtr := second.Metrics()
	if mtr.CkptDiskHits != 1 || mtr.CkptWarmups != 0 {
		t.Errorf("second store: %d disk hits / %d warmups, want 1 / 0", mtr.CkptDiskHits, mtr.CkptWarmups)
	}
	if mtr.CkptForks != 1 {
		t.Errorf("second store did not fork from the disk checkpoint: %+v", mtr)
	}
	direct, err := other.run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, direct) {
		t.Error("disk-checkpoint fork differs from direct run")
	}
	_ = want
}

// TestCheckpointForkConcurrent: concurrent first requests across a
// sweep singleflight the warmup and fork race-free (exercised under
// -race in CI's short differential job).
func TestCheckpointForkConcurrent(t *testing.T) {
	s := newTestStore(t, "")
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(accel.AllModes))
	for i := 0; i < 4; i++ {
		for _, m := range accel.AllModes {
			wg.Add(1)
			go func(m accel.Mode) {
				defer wg.Done()
				spec := warmupHeavySpec(t, m, 2000)
				got, err := s.RunStats(spec)
				if err != nil {
					errs <- err
					return
				}
				want, err := spec.run()
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("%s: concurrent forked stats diverge", m)
				}
			}(m)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if mtr := s.Metrics(); mtr.CkptWarmups != 1 {
		t.Errorf("concurrent sweep ran %d warmups, want 1", mtr.CkptWarmups)
	}
}

// TestBadCheckpointBlobsAreMisses: a checkpoint blob whose checkpoint
// bytes carry another codec version or are truncated is a miss. The
// warmup reruns, the fork still matches a direct run, and the rewritten
// blob is a disk hit for the next store.
func TestBadCheckpointBlobsAreMisses(t *testing.T) {
	for name, corrupt := range map[string]func([]byte) []byte{
		"stale-version": func(ck []byte) []byte {
			// The version word follows the 8-byte magic.
			binary.LittleEndian.PutUint64(ck[8:], 2)
			return ck
		},
		"truncated": func(ck []byte) []byte { return ck[:len(ck)/2] },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			first := newTestStore(t, dir)
			spec := warmupHeavySpec(t, accel.LT, 2000)
			if _, err := first.RunStats(spec); err != nil {
				t.Fatal(err)
			}
			path := first.blobPath("ckpt", spec.warmupDigest())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var b diskBlob
			if err := json.Unmarshal(data, &b); err != nil {
				t.Fatal(err)
			}
			b.Ckpt = corrupt(b.Ckpt)
			if data, err = json.Marshal(b); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			for i, m := range []accel.Mode{accel.NLNT, accel.LNT} {
				s := newTestStore(t, dir)
				spec := warmupHeavySpec(t, m, 2000)
				got, err := s.RunStats(spec)
				if err != nil {
					t.Fatal(err)
				}
				want, err := spec.run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: fork differs from direct run", m)
				}
				mtr := s.Metrics()
				if wantHits := int64(i); mtr.CkptDiskHits != wantHits || mtr.CkptWarmups != 1-wantHits || mtr.CkptForks != 1 {
					t.Errorf("%s: %d disk hits / %d warmups / %d forks, want %d / %d / 1",
						m, mtr.CkptDiskHits, mtr.CkptWarmups, mtr.CkptForks, wantHits, 1-wantHits)
				}
			}
		})
	}
}

// TestCorruptCheckpointFrameFallsBack: a checkpoint blob whose state
// frame is one byte short still decodes, because the state is only
// validated on resume, so the store loads it as a disk hit. The fork's
// resume then fails and the store falls back to a direct run, whose
// Stats must equal a direct run's.
func TestCorruptCheckpointFrameFallsBack(t *testing.T) {
	dir := t.TempDir()
	spec := warmupHeavySpec(t, accel.LT, 2000)
	if _, err := newTestStore(t, dir).RunStats(spec); err != nil {
		t.Fatal(err)
	}
	path := newTestStore(t, dir).blobPath("ckpt", spec.warmupDigest())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b diskBlob
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	ck, err := sim.UnmarshalCheckpoint(b.Ckpt)
	if err != nil {
		t.Fatal(err)
	}
	ck.State = ck.State[:len(ck.State)-1]
	b.Ckpt = ck.MarshalBinary()
	if data, err = json.Marshal(b); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestStore(t, dir)
	other := warmupHeavySpec(t, accel.NLNT, 2000)
	got, err := s.RunStats(other)
	if err != nil {
		t.Fatal(err)
	}
	want, err := other.run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("fallback after a corrupt frame differs from a direct run")
	}
	if m := s.Metrics(); m.CkptDiskHits != 1 || m.CkptWarmups != 0 || m.CkptForks != 0 {
		t.Errorf("%d disk hits / %d warmups / %d forks, want 1 / 0 / 0", m.CkptDiskHits, m.CkptWarmups, m.CkptForks)
	}
}

// TestGoldenWarmupDigest pins the warmup-family digest of a heap
// workload with a scalar warmup phase. The store keys checkpoint blobs
// on it, so a move here orphans every cached warm checkpoint. The pin
// reads the digest itself: this spec's probe pauses below
// minForkCycles, so no checkpoint blob is ever written under it.
func TestGoldenWarmupDigest(t *testing.T) {
	const want = "ba483d486c7ed8d912c5db229496292f7b0637cd92d1a3c020163facedbb4f04"
	w, err := workload.Heap(workload.HeapConfig{
		Operations: 40, FillerPerCall: 10, Prefill: 512, Seed: 1, WarmupFiller: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.HighPerfConfig()
	cfg.Mode = accel.LT
	spec := Spec{
		Config:    cfg,
		Program:   w.Accelerated,
		NewDevice: w.NewDevice,
		DeviceKey: w.DeviceKey,
		MaxCycles: 4_000_000_000,
	}
	if !spec.forkable() {
		t.Fatal("heap spec with a warmup phase does not fork")
	}
	if got := spec.warmupDigest().String(); got != want {
		t.Errorf("warmup-family digest %s, want %s", got, want)
	}
}
