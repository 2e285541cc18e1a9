// Fixture for R8 (digest-field-coverage) on the scenario spec types.
// Posed as a package under internal/scenario, it defines a local Spec
// around the real sim.Config. Config goes through AppendCanonical, so it
// is read and its own fields, audited under internal/sim, are not
// demanded here. Spec.Seed is deliberately never encoded.
package fixturespec

import "repro/internal/sim"

type Spec struct {
	Config    sim.Config // read whole: fine
	MaxCycles int64      // encoded: fine
	Seed      int64      // never encoded -> reported (on the anchor line below)
}

type encoder struct{ buf []byte }

// config is the first consumer declaration, so aggregated per-type
// diagnostics anchor here.
func (e *encoder) config(c sim.Config) { // want:R8
	e.buf = c.AppendCanonical(e.buf)
}

func (e *encoder) i64(v int64) { e.buf = append(e.buf, byte(v)) }

func (sp Spec) Digest() []byte {
	e := &encoder{}
	e.config(sp.Config)
	e.i64(sp.MaxCycles)
	return e.buf
}
