package bpred

import "repro/internal/ckpt"

// WalkState walks p's mutable state through the checkpoint codec: its
// kind, the gshare history, the counter table of bimodal and gshare, and
// the primed outcomes of perfect in ascending PC order. A kind without
// one of these writes it zero or empty. Decoding fills a freshly built
// predictor of the same kind and table size, and fails on a frame of
// another kind or size.
func WalkState(k *ckpt.Codec, p Predictor) {
	kind := p.Name()
	k.Str(&kind)
	if kind != p.Name() {
		k.Failf("bpred: %q frame for a %q predictor", kind, p.Name())
		return
	}
	// Kinds without a history or primed outcomes walk these stand-ins,
	// which a canonical frame leaves zero.
	var noHistory uint64
	var noPrimed map[uint64]bool
	history, primed := &noHistory, &noPrimed
	var table []counter
	switch t := p.(type) {
	case *Static:
	case *Bimodal:
		table = t.table
	case *GShare:
		history, table = &t.history, t.table
	case *Perfect:
		primed = &t.next
	default:
		k.Failf("bpred: cannot walk predictor %q", kind)
		return
	}
	k.U64(history)
	if n := k.Count(len(table), 1); n != len(table) {
		k.Failf("bpred: frame has %d counters, %s holds %d", n, kind, len(table))
		return
	}
	for i := range table {
		k.U8((*uint8)(&table[i]))
	}
	ckpt.Map(k, primed, ckpt.WordBytes+1, (*ckpt.Codec).Bool)
	if noHistory != 0 || len(noPrimed) != 0 {
		k.Failf("bpred: %s frame holds a history or primed outcomes", kind)
	}
}
