// Fixture for R9's device-snapshot sub-check. Posed as a package under
// internal/accel, it defines three snapshottable devices: one that walks
// everything it mutates (clean), one that forgets a counter (one
// diagnostic), and one whose scratch field carries an exemption manifest.
// A fourth type mutates a field but has no WalkState, so it is outside
// the checkpoint protocol and ignored.
package fixturedev

import "repro/internal/ckpt"

// Clean walks both counters it mutates; configuration (Latency) is
// constructor-set and correctly absent from the frame.
type Clean struct {
	Latency     int
	Invocations uint64
	Words       uint64
}

func (d *Clean) Invoke(words uint64) {
	d.Invocations++
	d.Words += words
}

func (d *Clean) WalkState(k *ckpt.Codec) {
	k.U64(&d.Invocations)
	k.U64(&d.Words)
}

// Leaky bumps Dropped in Invoke but its walk only carries Invocations:
// the counter silently diverges across checkpoint forks.
type Leaky struct {
	Invocations uint64
	Dropped     uint64
}

func (d *Leaky) Invoke() {
	d.Invocations++
	d.Dropped += 2
}

func (d *Leaky) WalkState(k *ckpt.Codec) { // want:R9
	k.U64(&d.Invocations)
}

// Exempted mutates Scratch but declares it per-invocation state, dead at
// any cycle boundary — the manifest keeps the audit quiet.
type Exempted struct {
	Invocations uint64
	Scratch     []uint64
}

//lint:exempt-field R9 Exempted.Scratch per-invocation scratch, dead at cycle boundaries

func (d *Exempted) Invoke(v uint64) {
	d.Invocations++
	d.Scratch = append(d.Scratch[:0], v)
}

func (d *Exempted) WalkState(k *ckpt.Codec) {
	k.U64(&d.Invocations)
}

// Stateless mutates a counter but has no WalkState: it is not in the
// checkpoint protocol (the simulator refuses to checkpoint it once
// invoked), so this audit has nothing to say about it.
type Stateless struct {
	Calls uint64
}

func (d *Stateless) Invoke() { d.Calls++ }
