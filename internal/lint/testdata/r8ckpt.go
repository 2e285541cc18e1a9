// Fixture for R8's checkpoint-codec audit and R9's Checkpoint clone
// audit. Posed as a package under internal/sim, it defines a local
// Checkpoint stand-in with a nested RenameEntry, and its walk. The
// stand-in keeps the shape of a field-by-field state mirror, which the
// real Checkpoint no longer is (it holds a header and one opaque state
// frame that (*Core).walkState writes), because the audit reads any
// walked struct the same way. TCABusyUntil is deliberately never
// walked — a field added to checkpointed state but forgotten in the
// walk, which would silently zero on every resume — and the stand-in's
// Clone, which the real Checkpoint does not have, aliases the Ports
// slice.
package fixtureckpt

import "repro/internal/ckpt"

type RenameEntry struct {
	Valid bool
	Seq   uint64
}

type Checkpoint struct {
	Now          int64         // walked: fine
	Seq          uint64        // walked: fine
	TCABusyUntil int64         // never walked -> reported (silently zero on resume)
	Rename       []RenameEntry // walked transitively: fine
	Ports        []int64       // walked, but aliased by Clone below
	scratch      int64         // unexported: ignored by the digest audit
}

// walkCheckpoint is the first consumer declaration, so aggregated
// per-type diagnostics anchor here.
func walkCheckpoint(k *ckpt.Codec, ck *Checkpoint) { // want:R8
	k.I64(&ck.Now)
	k.U64(&ck.Seq)
	for i := range ck.Rename {
		walkRename(k, &ck.Rename[i])
	}
	for i := range ck.Ports {
		k.I64(&ck.Ports[i])
	}
}

func walkRename(k *ckpt.Codec, rn *RenameEntry) {
	k.Bool(&rn.Valid)
	k.U64(&rn.Seq)
}

// MarshalBinary delegates to the walk; its own reads do NOT count as
// coverage (only walks and Digest funcs are consumers).
func (ck *Checkpoint) MarshalBinary() []byte {
	k := ckpt.Encoder(nil)
	walkCheckpoint(&k, ck)
	return k.Encoded()
}

// Clone deep-copies Rename but aliases Ports.
func (ck *Checkpoint) Clone() *Checkpoint {
	out := *ck
	out.Rename = append([]RenameEntry(nil), ck.Rename...)
	out.Ports = ck.Ports // want:R9
	return &out
}
