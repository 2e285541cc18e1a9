// Package workload generates the paper's evaluation programs in matched
// baseline/accelerated pairs:
//
//   - Synthetic — the §V-A adaptive microbenchmark: ALU filler with
//     randomly placed acceleratable regions; sweeping the region count
//     raises invocation frequency and coverage together (Fig. 4).
//   - Heap — the §V-B heap-manager benchmark: random malloc/free of four
//     TCMalloc size classes; the baseline inlines software allocator
//     routines with the paper's measured uop costs, the accelerated
//     version issues single-cycle heap-TCA instructions (Fig. 5).
//   - MatMul — the §V-C benchmark: N×N double-precision GEMM through B×B
//     cache blocking; accelerated versions replace the element-wise kernel
//     with t×t multiply-accumulate TCA invocations (Fig. 6).
//
// Every generator is deterministic in its seed and returns exact dynamic
// instruction accounting for model calibration.
package workload

import (
	"fmt"

	"repro/internal/isa"
)

// Workload is a matched pair of programs plus the metadata interval
// analysis needs.
type Workload struct {
	//lint:exempt-field R8 Workload.Name presentation only; identity comes from the programs and counts below
	Name string
	//lint:exempt-field R8 Workload.Description presentation only; never influences generated programs
	Description string

	// Baseline is the software-only program; Accelerated replaces the
	// acceleratable regions with TCA invocations.
	Baseline    *isa.Program
	Accelerated *isa.Program

	// Acceleratable is the dynamic baseline instruction count inside
	// acceleratable regions; Invocations is the dynamic TCA invocation
	// count in the accelerated program. BaselineInstructions is the
	// total dynamic baseline length.
	Acceleratable        uint64
	Invocations          uint64
	BaselineInstructions uint64

	// NewDevice builds a fresh accelerator device for one run (devices
	// are stateful). Nil for baseline-only workloads.
	NewDevice func() isa.AccelDevice

	// DeviceKey canonically describes the device NewDevice builds: two
	// workloads with equal keys must produce behaviorally identical
	// devices. The scenario layer folds it into run digests, so a
	// workload with a device but no key fails Validate rather than risk
	// a result shared between unidentified devices. Generators in this
	// package always set it.
	DeviceKey string

	// AccelLatency, when positive, is the known per-invocation device
	// latency for the model's explicit-latency path.
	AccelLatency float64
}

// GeneratorVersion names the output of every generator in this package.
// A stored recipe (internal/scenario) claims that a Spec builds to one
// measure digest, and that claim holds only while the generators do not
// change. Bump it whenever any generator's output changes for some spec:
// its programs, init image, counts, AccelLatency or DeviceKey.
// TestGeneratorVersionPinsOutput pins a corpus hash to the current value.
const GeneratorVersion = 1

// Counts is the dynamic instruction accounting of a workload: the
// scalars the model calibrates from and the renderers print.
type Counts struct {
	Acceleratable        uint64
	Invocations          uint64
	BaselineInstructions uint64
}

// Validate checks the counts a well-formed workload has: at least one
// invocation, and an acceleratable share strictly inside the baseline.
func (c Counts) Validate() error {
	if c.Invocations == 0 {
		return fmt.Errorf("no invocations")
	}
	if c.Acceleratable == 0 || c.Acceleratable >= c.BaselineInstructions {
		return fmt.Errorf("acceleratable %d out of range (total %d)",
			c.Acceleratable, c.BaselineInstructions)
	}
	return nil
}

// Granularity returns a/v, baseline instructions replaced per invocation.
func (c Counts) Granularity() float64 {
	return float64(c.Acceleratable) / float64(c.Invocations)
}

// Counts returns the workload's instruction accounting.
func (w *Workload) Counts() Counts {
	return Counts{
		Acceleratable:        w.Acceleratable,
		Invocations:          w.Invocations,
		BaselineInstructions: w.BaselineInstructions,
	}
}

// Validate checks the pair's structural consistency.
func (w *Workload) Validate() error {
	if w.Baseline == nil || w.Accelerated == nil {
		return fmt.Errorf("workload %s: missing program", w.Name)
	}
	if err := w.Baseline.Validate(); err != nil {
		return fmt.Errorf("workload %s baseline: %w", w.Name, err)
	}
	if err := w.Accelerated.Validate(); err != nil {
		return fmt.Errorf("workload %s accelerated: %w", w.Name, err)
	}
	if err := w.Counts().Validate(); err != nil {
		return fmt.Errorf("workload %s: %w", w.Name, err)
	}
	if w.NewDevice != nil && w.DeviceKey == "" {
		return fmt.Errorf("workload %s: device without a DeviceKey", w.Name)
	}
	return nil
}

// CoverageFrac returns a, the acceleratable fraction of the baseline.
func (w *Workload) CoverageFrac() float64 {
	return float64(w.Acceleratable) / float64(w.BaselineInstructions)
}

// InvocationFreq returns v, invocations per baseline instruction.
func (w *Workload) InvocationFreq() float64 {
	return float64(w.Invocations) / float64(w.BaselineInstructions)
}

// Granularity returns a/v, baseline instructions replaced per invocation.
func (w *Workload) Granularity() float64 { return w.Counts().Granularity() }
