package sim

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/isa"
)

// TestNewRejectsInvalidLiteral: Builder.Build marks the programs it
// returns as validated so later checks skip the walk, but a hand-built
// Program literal carries no mark and must still be rejected.
func TestNewRejectsInvalidLiteral(t *testing.T) {
	cases := map[string]*isa.Program{
		"branch-out-of-range": {Code: []isa.Instruction{
			{Op: isa.OpBeq, Src1: isa.R(1), Src2: isa.R(2), Imm: 99},
			{Op: isa.OpHalt},
		}},
		"no-halt": {Code: []isa.Instruction{{Op: isa.OpNop}}},
	}
	for name, p := range cases {
		if _, err := New(HighPerfConfig(), p, nil); err == nil {
			t.Errorf("%s: New accepted an invalid program", name)
		}
	}
}

// TestBuiltProgramSharedAcrossCores: one built program, validated and
// handed to New from several goroutines at once, runs race-free and
// identically on every core, and the goroutines race to take its first
// fingerprint and first memoized digest. Build writes the memo before the
// program is shared; each memoized value is computed once, whoever asks
// first, and equals what a literal with the same content computes.
func TestBuiltProgramSharedAcrossCores(t *testing.T) {
	prog := sumProgram(300)
	var sums atomic.Int32
	sum := func(p *isa.Program) [32]byte {
		sums.Add(1)
		return sha256.Sum256([]byte(p.Disassemble()))
	}
	results := make([]*Result, 4)
	fps := make([]uint64, len(results))
	digests := make([][32]byte, len(results))
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fps[i] = prog.Fingerprint()
			digests[i] = prog.MemoDigest(sum)
			if errs[i] = prog.Validate(); errs[i] != nil {
				return
			}
			core, err := New(HighPerfConfig(), prog, nil)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = core.Run(1_000_000)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("core %d: %v", i, err)
		}
	}
	for i := 1; i < len(results); i++ {
		assertSameResult(t, "shared program", results[0], results[i])
	}
	if n := sums.Load(); n != 1 {
		t.Errorf("memoized digest computed %d times, want 1", n)
	}
	lit := &isa.Program{Code: prog.Code, Init: prog.Init, Labels: prog.Labels}
	wantDigest := sha256.Sum256([]byte(lit.Disassemble()))
	for i := range results {
		if fps[i] != lit.Fingerprint() {
			t.Errorf("goroutine %d: fingerprint %#x, literal %#x", i, fps[i], lit.Fingerprint())
		}
		if digests[i] != wantDigest {
			t.Errorf("goroutine %d: memoized digest differs from the literal's", i)
		}
	}
}

// TestResumeRejectsEditedLiteral: a hand-built literal has no memo, so
// its fingerprint follows edits to its Code. A resume under the literal
// as checkpointed succeeds; after an edit it is refused.
func TestResumeRejectsEditedLiteral(t *testing.T) {
	built := sumProgram(300)
	lit := &isa.Program{
		Code: append([]isa.Instruction(nil), built.Code...),
		Init: append([]isa.MemInit(nil), built.Init...),
	}
	cfg := HighPerfConfig()
	core, err := New(cfg, lit, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunTo(1_000_000, 100); err != nil {
		t.Fatal(err)
	}
	ck, err := core.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ck.ProgHash != built.Fingerprint() {
		t.Errorf("literal checkpointed with fingerprint %#x, built program has %#x", ck.ProgHash, built.Fingerprint())
	}
	if _, err := NewFromCheckpoint(cfg, lit, nil, ck); err != nil {
		t.Fatalf("unedited literal: %v", err)
	}
	for i, in := range lit.Code {
		if in.Op == isa.OpMovI && in.Imm == 0x1000 {
			lit.Code[i].Imm = 0x2000
		}
	}
	if _, err := NewFromCheckpoint(cfg, lit, nil, ck); err == nil {
		t.Error("resume accepted a literal edited after its checkpoint")
	}
}
