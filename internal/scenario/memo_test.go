package scenario

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestDigestedProgramsCollected: taking a workload's digests and
// checkpointing a core on it must not keep its programs alive. Their
// memoized sub-digests and fingerprints live in the programs, so once
// the caller drops a workload, a long-running process can collect it.
func TestDigestedProgramsCollected(t *testing.T) {
	collected := make(chan string, 2)
	digestAndDrop(t, collected)
	seen := map[string]bool{}
	for round := 0; round < 10 && len(seen) < 2; round++ {
		runtime.GC()
		timeout := time.After(50 * time.Millisecond)
	drain:
		for len(seen) < 2 {
			select {
			case name := <-collected:
				seen[name] = true
			case <-timeout:
				break drain
			}
		}
	}
	for _, name := range []string{"baseline", "accelerated"} {
		if !seen[name] {
			t.Errorf("the %s program was never collected", name)
		}
	}
}

// digestAndDrop builds a workload, takes its run, measure and
// warmup-family digests, checkpoints a core on its accelerated program
// and resumes from the checkpoint, then returns holding no reference to
// it. A finalizer on each program reports its collection.
func digestAndDrop(t *testing.T, collected chan<- string) {
	t.Helper()
	w, err := workload.Heap(workload.HeapConfig{Operations: 60, FillerPerCall: 20, Prefill: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	runtime.SetFinalizer(w.Baseline, func(*isa.Program) { collected <- "baseline" })
	runtime.SetFinalizer(w.Accelerated, func(*isa.Program) { collected <- "accelerated" })

	cfg := sim.HighPerfConfig()
	cfg.Mode = accel.LT
	sp := Spec{Config: cfg, Program: w.Accelerated, NewDevice: w.NewDevice, DeviceKey: w.DeviceKey, MaxCycles: 10_000_000}
	_ = sp.Digest()
	_ = sp.warmupDigest()
	_ = MeasureSpec{Config: cfg, Workload: w, MaxCycles: 10_000_000}.Digest()

	core, err := sim.New(cfg, w.Accelerated, w.NewDevice())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunTo(10_000_000, 500); err != nil {
		t.Fatal(err)
	}
	ck, err := core.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.NewFromCheckpoint(cfg, w.Accelerated, w.NewDevice(), ck); err != nil {
		t.Fatal(err)
	}
}

// TestLiteralProgramDigestFollowsEdits: a hand-built literal has no memo,
// so editing its Code between two digests changes the digest.
func TestLiteralProgramDigestFollowsEdits(t *testing.T) {
	built := goldenProgram(t)
	lit := &isa.Program{
		Code: append([]isa.Instruction(nil), built.Code...),
		Init: append([]isa.MemInit(nil), built.Init...),
	}
	sp := Spec{Config: sim.HighPerfConfig(), Program: lit, MaxCycles: 100000}
	before := sp.Digest()
	lit.Code[0].Imm++
	if sp.Digest() == before {
		t.Error("editing a literal's Code left its digest unchanged")
	}
}

// TestBuiltProgramDigestMatchesLiteral: memoization changes what a
// digest costs, never its value. A built program's digests and
// fingerprint, first and memoized, equal those of a literal with the
// same Code and Init.
func TestBuiltProgramDigestMatchesLiteral(t *testing.T) {
	w, err := workload.Heap(workload.HeapConfig{Operations: 60, FillerPerCall: 20, Prefill: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lit := *w
	lit.Baseline = &isa.Program{Code: w.Baseline.Code, Init: w.Baseline.Init}
	lit.Accelerated = &isa.Program{Code: w.Accelerated.Code, Init: w.Accelerated.Init}

	cfg := sim.HighPerfConfig()
	cfg.Mode = accel.LT
	spec := func(w *workload.Workload) Spec {
		return Spec{Config: cfg, Program: w.Accelerated, NewDevice: w.NewDevice, DeviceKey: w.DeviceKey, MaxCycles: 10_000_000}
	}
	measure := func(w *workload.Workload) MeasureSpec {
		return MeasureSpec{Config: cfg, Workload: w, MaxCycles: 10_000_000}
	}
	for round := 0; round < 2; round++ {
		if spec(w).Digest() != spec(&lit).Digest() {
			t.Errorf("round %d: run digest of the built program differs from the literal's", round)
		}
		if spec(w).warmupDigest() != spec(&lit).warmupDigest() {
			t.Errorf("round %d: warmup digest of the built program differs from the literal's", round)
		}
		if measure(w).Digest() != measure(&lit).Digest() {
			t.Errorf("round %d: measure digest of the built workload differs from the literal's", round)
		}
		for _, p := range [][2]*isa.Program{{w.Baseline, lit.Baseline}, {w.Accelerated, lit.Accelerated}} {
			if p[0].Fingerprint() != p[1].Fingerprint() {
				t.Errorf("round %d: fingerprint %#x of a built program, literal %#x", round, p[0].Fingerprint(), p[1].Fingerprint())
			}
		}
	}
}
