// Package workload gives Gamma its constructor and canonical key —
// these two surfaces are wired; the snapshot pair and the registry
// entry in Spec.Build are not.
package workload

import (
	"fmt"

	"r13broken/internal/accel"
	"r13broken/internal/isa"
)

// Workload is the constructor product.
type Workload struct {
	Name      string
	DeviceKey string
	NewDevice func() isa.AccelDevice
}

// Gamma wires the half-finished family.
func Gamma(lat uint64) *Workload {
	return &Workload{
		Name:      "gamma",
		DeviceKey: fmt.Sprintf("gamma:lat=%d", lat),
		NewDevice: func() isa.AccelDevice { return accel.NewGamma(lat) },
	}
}

// Spec is the registry; Gamma is missing from it.
type Spec struct {
	Kind string
}

// Build constructs the named workload.
func (s Spec) Build() (*Workload, error) {
	return nil, fmt.Errorf("workload: unknown kind %q", s.Kind)
}
