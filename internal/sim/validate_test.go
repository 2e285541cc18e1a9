package sim

import (
	"sync"
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
// identically on every core. Build writes the validated mark before the
// program is shared; everything after only reads it.
func TestBuiltProgramSharedAcrossCores(t *testing.T) {
	prog := sumProgram(300)
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, 4)
	errs := make([]error, len(results))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
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
}
