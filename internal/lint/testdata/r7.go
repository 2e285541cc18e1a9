// Fixture for R7 unkeyed-spec-literal. The rule applies everywhere,
// including the defining packages, so the package path does not matter.
package fixture7

import (
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// positional literals of the canonical spec types rot silently when a
// field is inserted: every value after the insertion point shifts one
// slot without a compile error. (sim.Config itself has too many fields
// for a positional literal to compile at all — which is the same
// failure mode, just caught later.)
func unkeyed() {
	_ = scenario.Spec{sim.Config{}, nil, nil, "", 0}       // want:R7
	_ = scenario.MeasureSpec{sim.HighPerfConfig(), nil, 0} // want:R7
	_ = scenario.Recipe{workload.Spec{}, sim.Config{}, 0}  // want:R7
}

// keyed literals are the sanctioned pattern.
func keyed() scenario.Spec {
	return scenario.Spec{
		Config:    sim.HighPerfConfig(),
		MaxCycles: 1,
	}
}

// zeroValue literals have nothing positional and are fine.
func zeroValue() (scenario.Spec, sim.Config) {
	return scenario.Spec{}, sim.Config{}
}

// otherTypes with positional fields are out of scope.
type pair struct{ a, b int }

func otherTypes() pair {
	return pair{1, 2}
}

// suppressed documents a deliberate positional literal.
func suppressed() scenario.MeasureSpec {
	//lint:ignore R7 fixture: demonstrates a justified exception
	return scenario.MeasureSpec{sim.Config{}, nil, 1}
}
