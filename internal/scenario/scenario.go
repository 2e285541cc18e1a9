// Package scenario gives every simulation run a canonical, validated
// description and a stable content address.
//
// A Spec names one simulator execution — core configuration, program,
// accelerator device, and run limit — in a form that is independent of
// how the run was reached (which sweep, which flag spelling, which
// worker). Two Specs with equal digests are guaranteed to produce
// bit-identical sim.Stats, so the digest can key a result cache shared
// by every experiment driver: the Store layered on top deduplicates
// identical runs within a figure sweep, across figures, and (with a
// disk directory) across processes. A Recipe names a whole sweep point
// one step earlier, by the workload generator spec that builds it, so
// the store answers a stored point without building it (recipe.go).
//
// Canonicalization is deliberately one-directional: fields that cannot
// change simulated-machine results are erased before hashing
// (Config.Name, cache Names, NoFastForward — bit-identical by the
// fast-forward contract), and implicit defaults are made explicit
// (the predictor's zero values), so digest-equal always implies
// semantics-equal. The converse does not hold and does not need to:
// a missed dedup opportunity costs time, a wrong hit would corrupt
// results. For the same reason a Spec whose device lacks a canonical
// DeviceKey is invalid: the store never runs a device it cannot name.
package scenario

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// SchemeVersion salts every digest. Bump it whenever the canonical
// encoding, the canonicalization rules, or the cached JSON payload layout
// change in any way: old disk blobs then read as misses instead of
// serving stale bytes. The golden digest tests pin the current scheme.
// The checkpoint codec's own version header covers checkpoint bytes.
//
// v3: the device-engine refactor — checkpoint codec v2 (new stats frame
// fields) and the first engine device families (DAE, loop nest) changed the
// cached payload layout.
const SchemeVersion = 3

// Spec canonically describes one simulator run.
type Spec struct {
	// Config is the core configuration. Semantically-neutral fields
	// (Name, NoFastForward, cache Names) are ignored for identity;
	// everything else — including RecordAccelEvents and PipeTraceLimit,
	// which change the Stats payload — participates in the digest.
	Config sim.Config
	// Program is the instruction stream and initial memory image.
	// Labels are diagnostic and excluded from identity.
	Program *isa.Program
	// NewDevice constructs the accelerator device, nil for none. The
	// closure itself cannot be hashed; DeviceKey stands in for it.
	NewDevice func() isa.AccelDevice
	// DeviceKey canonically describes the device: equal keys must mean
	// behaviorally identical devices. Validate requires it whenever
	// NewDevice is set.
	DeviceKey string
	// MaxCycles bounds the run.
	MaxCycles int64
}

// Validate reports spec errors.
func (sp Spec) Validate() error {
	switch {
	case sp.Program == nil:
		return fmt.Errorf("scenario: nil program")
	case len(sp.Program.Code) == 0:
		return fmt.Errorf("scenario: empty program")
	case sp.MaxCycles <= 0:
		return fmt.Errorf("scenario: max cycles %d must be positive", sp.MaxCycles)
	case sp.NewDevice != nil && sp.DeviceKey == "":
		return fmt.Errorf("scenario: device without a DeviceKey")
	}
	return sp.Config.Validate()
}

// run executes the spec directly, bypassing any cache.
func (sp Spec) run() (sim.Stats, error) {
	var dev isa.AccelDevice
	if sp.NewDevice != nil {
		dev = sp.NewDevice()
	}
	c, err := sim.New(sp.Config, sp.Program, dev)
	if err != nil {
		return sim.Stats{}, err
	}
	res, err := c.Run(sp.MaxCycles)
	if err != nil {
		return sim.Stats{}, err
	}
	return res.Stats, nil
}

// MeasureSpec canonically describes one full measure-workload
// evaluation: baseline plus all four accelerated modes on one core
// configuration, reduced to a MeasureRecord. Its digest covers both
// programs, the region bookkeeping the model calibrates from, and the
// device identity.
type MeasureSpec struct {
	Config    sim.Config
	Workload  *workload.Workload
	MaxCycles int64
}

// Validate reports spec errors.
func (ms MeasureSpec) Validate() error {
	if ms.Workload == nil {
		return fmt.Errorf("scenario: nil workload")
	}
	if ms.MaxCycles <= 0 {
		return fmt.Errorf("scenario: max cycles %d must be positive", ms.MaxCycles)
	}
	if err := ms.Workload.Validate(); err != nil {
		return err
	}
	return ms.Config.Validate()
}
