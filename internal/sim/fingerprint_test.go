package sim

import (
	"testing"

	"repro/internal/workload"
)

// TestProgramFingerprintGolden pins the program fingerprint that every
// checkpoint records as ProgHash. Checkpoint blobs on disk carry this
// value and a resume compares against it, so a change to how it is
// computed orphans every stored checkpoint.
func TestProgramFingerprintGolden(t *testing.T) {
	spec, err := workload.DefaultSpec("heap")
	if err != nil {
		t.Fatal(err)
	}
	w, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  uint64
		want uint64
	}{
		{"baseline", w.Baseline.Fingerprint(), 0x88fed787d9fdc06e},
		{"accelerated", w.Accelerated.Fingerprint(), 0x9c57dd4e83d789e9},
	} {
		if c.got != c.want {
			t.Errorf("heap %s fingerprint = %#x, want %#x", c.name, c.got, c.want)
		}
	}
}
