// Package accel declares a half-wired device family: Gamma has a
// workload constructor with a DeviceKey, but has no WalkState (its
// snapshot helper is not the checkpoint surface) and is never
// registered in workload.Spec.Build. R13 must report both gaps in one
// diagnostic anchored at the type declaration.
package accel

import "r13broken/internal/isa"

// Gamma is the half-wired family.
type Gamma struct{ lat uint64 } // want:R13

// NewGamma builds a Gamma with a fixed compute latency.
func NewGamma(lat uint64) *Gamma { return &Gamma{lat: lat} }

func (d *Gamma) Name() string { return "gamma" }

func (d *Gamma) Invoke(call isa.AccelCall, mem isa.WordReader) isa.AccelResult {
	return isa.AccelResult{Value: call.Args[0] + d.lat, Latency: int(d.lat)}
}

func (d *Gamma) Snapshot() []uint64 { return []uint64{d.lat} }
