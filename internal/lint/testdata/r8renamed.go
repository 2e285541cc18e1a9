// Fixture for R8's guard against a walk it cannot find. Posed as a
// package under internal/sim, it walks Checkpoint in methods that take
// no *ckpt.Codec, so R8 does not know them as the checkpoint walk; that
// must be reported rather than leave the audit silently off.
package fixturerenamed

type Checkpoint struct { // want:R8
	Now int64
}

type walker struct{ buf []byte }

func (w *walker) checkpoint(ck *Checkpoint) {
	w.buf = append(w.buf, byte(ck.Now))
}
