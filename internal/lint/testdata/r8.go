// Fixture for R8 (digest-field-coverage) on sim.Config. Posed as a
// package under internal/sim, it defines a local stand-in for Config and
// the checkpoint walk that encodes it. Config.IQSize and LSQSize are
// deliberately never walked; Name is erased by Canonical and Note
// carries an exemption manifest entry, so neither of those may be
// reported.
package fixture8

import "repro/internal/ckpt"

type Config struct {
	Name    string // erased by Canonical: fine
	Width   int    // walked: fine
	IQSize  int    // never walked -> reported (on the anchor line below)
	LSQSize int    // never walked -> reported (same diagnostic)
	Note    string // exempted: fine
	hidden  int    // unexported: ignored
}

//lint:exempt-field R8 Config.Note presentation only, never affects simulated results

// Canonical erases Name (zero literal) and normalizes Width (non-zero
// assignment — must NOT count as erasure, Width stays walked).
func (c Config) Canonical() Config {
	c.Name = ""
	if c.Width == 0 {
		c.Width = 4
	}
	return c
}

// walkConfig is the first consumer declaration, so aggregated per-type
// diagnostics anchor here.
func walkConfig(k *ckpt.Codec, c *Config) { // want:R8
	k.Int(&c.Width)
}

// AppendCanonical reads no field itself; the walk is what R8 audits.
func (c Config) AppendCanonical(b []byte) []byte {
	c = c.Canonical()
	k := ckpt.Encoder(b)
	walkConfig(&k, &c)
	return k.Encoded()
}
