// Fixture for R8's checkpoint-codec audit and R9's Checkpoint clone
// audit. Posed as a package under internal/sim, it defines local
// stand-ins for Checkpoint, its nested RenameEntry, and the binary
// codec. TCABusyUntil is deliberately never encoded — the
// "microarchitectural field added to Core state but forgotten in the
// codec" failure, which would silently zero on every resume — and
// Clone aliases the Ports slice.
package fixtureckpt

type RenameEntry struct {
	Valid bool
	Seq   uint64
}

type Checkpoint struct {
	Now          int64         // encoded: fine
	Seq          uint64        // encoded: fine
	TCABusyUntil int64         // never encoded -> reported (silently zero on resume)
	Rename       []RenameEntry // encoded transitively: fine
	Ports        []int64       // encoded, but aliased by Clone below
	scratch      int64         // unexported: ignored by the digest audit
}

// checkpoint is the first consumer declaration, so aggregated per-type
// diagnostics anchor here.
func (k *codec) checkpoint(ck *Checkpoint) { // want:R8
	k.push(uint64(ck.Now))
	k.push(ck.Seq)
	for _, rn := range ck.Rename {
		if rn.Valid {
			k.push(1)
		}
		k.push(rn.Seq)
	}
	for _, p := range ck.Ports {
		k.push(uint64(p))
	}
}

type codec struct{ buf []byte }

func (k *codec) push(v uint64) {
	k.buf = append(k.buf, byte(v))
}

// MarshalBinary delegates to the codec; its own reads do NOT count as
// coverage (only codec methods and Digest funcs are consumers).
func (ck *Checkpoint) MarshalBinary() []byte {
	var k codec
	k.checkpoint(ck)
	return k.buf
}

// Clone deep-copies Rename but aliases Ports.
func (ck *Checkpoint) Clone() *Checkpoint {
	out := *ck
	out.Rename = append([]RenameEntry(nil), ck.Rename...)
	out.Ports = ck.Ports // want:R9
	return &out
}
