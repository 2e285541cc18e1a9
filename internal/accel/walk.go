package accel

import (
	"repro/internal/ckpt"
	"repro/internal/isa"
)

// Device state walks for simulator checkpointing (isa.AccelSnapshotter).
//
// Most devices carry only diagnostic counters between invocations; their
// frames are a handful of words. The heap TCA additionally owns the full
// allocator state (free lists, ownership map, speculation journal), and the
// mux nests the frames of its sub-devices in order. Per-invocation
// scratch (the pending-store slices filled by Invoke and consumed in the
// same simulator cycle) is dead at any cycle boundary and is deliberately
// not walked — see DESIGN.md "Warm-state checkpointing".

// WalkState implements isa.AccelSnapshotter.
func (d *FixedLatency) WalkState(k *ckpt.Codec) { k.U64(&d.Invocations) }

// WalkState implements isa.AccelSnapshotter. The frame embeds the full
// allocator state, journal included, so speculative invocations in flight
// at the checkpoint can still be rolled back after resume.
func (h *Heap) WalkState(k *ckpt.Codec) {
	k.U64(&h.Misses)
	h.Alloc.WalkState(k)
}

// WalkState implements isa.AccelSnapshotter. The pending-store scratch
// is per-invocation and dead at cycle boundaries; only the counter persists.
func (d *MatMul) WalkState(k *ckpt.Codec) { k.U64(&d.Invocations) }

// WalkState implements isa.AccelSnapshotter. The hash table itself lives
// in program memory (walked with the memory image); only counters persist
// in the device.
func (d *HashMap) WalkState(k *ckpt.Codec) {
	k.U64(&d.Lookups)
	k.U64(&d.Inserts)
	k.U64(&d.Probes)
}

// WalkState implements isa.AccelSnapshotter.
func (d *Regex) WalkState(k *ckpt.Codec) {
	k.U64(&d.Invocations)
	k.U64(&d.Symbols)
	k.U64(&d.Matches)
}

// WalkState implements isa.AccelSnapshotter.
func (d *StrCmp) WalkState(k *ckpt.Codec) {
	k.U64(&d.Invocations)
	k.U64(&d.WordsTotal)
}

// WalkState implements isa.AccelSnapshotter.
func (d *DAE) WalkState(k *ckpt.Codec) {
	k.U64(&d.Invocations)
	k.U64(&d.WordsStreamed)
}

// WalkState implements isa.AccelSnapshotter.
func (d *LoopNest) WalkState(k *ckpt.Codec) {
	k.U64(&d.Invocations)
	k.U64(&d.Iterations)
}

// WalkState implements isa.AccelSnapshotter: the mux's own fields are
// either configuration (devices, usesMemory) or per-invocation scratch
// (lastStorer), so the frame is the device count and then one nested
// frame per sub-device, in order. A sub-device that is not snapshottable
// (none in this repo is) has an empty frame.
func (m *Mux) WalkState(k *ckpt.Codec) {
	n := len(m.devices)
	k.Int(&n)
	if n != len(m.devices) {
		k.Failf("accel: mux frame has %d device frames, mux holds %d", n, len(m.devices))
		return
	}
	for _, d := range m.devices {
		walk := func(*ckpt.Codec) {}
		if s, ok := d.(isa.AccelSnapshotter); ok {
			walk = s.WalkState
		}
		k.Frame(walk)
	}
}
