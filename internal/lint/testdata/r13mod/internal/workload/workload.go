// Package workload pairs each device family with a canonical identity
// and registers it in Spec.Build, mirroring the real module's
// constructor and registry surfaces.
package workload

import (
	"fmt"

	"r13fix/internal/accel"
	"r13fix/internal/isa"
)

// Workload is the constructor product: a device factory plus the
// canonical DeviceKey the scenario store caches under.
type Workload struct {
	Name      string
	DeviceKey string
	NewDevice func() isa.AccelDevice
}

func keyAlpha(lat uint64) string { return fmt.Sprintf("alpha:lat=%d", lat) }
func keyBeta(chunk int) string   { return fmt.Sprintf("beta:chunk=%d", chunk) }

// Alpha wires the scalar family.
func Alpha(lat uint64) *Workload { // r13drop:alpha-workload
	return &Workload{ // r13drop:alpha-workload
		Name:      "alpha",                                               // r13drop:alpha-workload
		DeviceKey: keyAlpha(lat),                                         // r13drop:alpha-key r13drop:alpha-workload
		NewDevice: func() isa.AccelDevice { return accel.NewAlpha(lat) }, // r13drop:alpha-workload
	} // r13drop:alpha-workload
} // r13drop:alpha-workload

// Beta wires the engine family.
func Beta(chunk int) *Workload {
	return &Workload{
		Name:      "beta",
		DeviceKey: keyBeta(chunk),
		NewDevice: func() isa.AccelDevice { return accel.NewBeta(chunk) },
	}
}

// Spec is the registry, shaped like the real one: Kind selects a family
// whose config field (JSON name = kind) scenariod clients send and
// cmd/tcasim lists, and whose Build case constructs it.
type Spec struct {
	Kind  string       `json:"kind"`
	Alpha *AlphaConfig `json:"alpha,omitempty"` // r13drop:alpha-kind
	Beta  *BetaConfig  `json:"beta,omitempty"`
}

// AlphaConfig configures the scalar family.
type AlphaConfig struct{ Lat uint64 }

// BetaConfig configures the engine family.
type BetaConfig struct{ Chunk int }

// Build constructs the named workload.
func (s Spec) Build() (*Workload, error) {
	switch s.Kind {
	case "alpha":
		return Alpha(s.Alpha.Lat), nil // r13drop:alpha-registry
	case "beta":
		return Beta(s.Beta.Chunk), nil
	}
	return nil, fmt.Errorf("workload: unknown kind %q", s.Kind)
}
