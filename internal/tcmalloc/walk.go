package tcmalloc

import "repro/internal/ckpt"

// journalOpBytes is the encoded size of one journal record.
var journalOpBytes = ckpt.WalkedLen(func(k *ckpt.Codec) { walkJournalOp(k, new(journalOp)) })

// WalkState walks the allocator's complete state through the checkpoint
// codec: the arena, the counters, every free list, the live blocks in
// ascending address order, and the speculation journal. The simulator
// checkpoints mid-run, while some invocations may still be speculative,
// so Rewind must still work after resume. Decoding replaces all state
// and fails on a nil free-list entry or a size class out of range.
func (a *Allocator) WalkState(k *ckpt.Codec) {
	k.U64(&a.arena)
	k.U64(&a.arenaHi)
	k.U64(&a.Mallocs)
	k.U64(&a.Frees)
	k.U64(&a.Refills)
	k.Int(&a.LiveBlocks)
	for c := range a.free {
		k.Uint64s(&a.free[c])
		for _, ptr := range a.free[c] {
			if ptr == 0 {
				k.Failf("tcmalloc: free list %d holds a nil pointer", c)
			}
		}
	}
	ckpt.Map(k, &a.owner, 2*ckpt.WordBytes, walkClass)
	ckpt.Sized(k, &a.journal, journalOpBytes)
	for i := range a.journal {
		walkJournalOp(k, &a.journal[i])
	}
}

func walkJournalOp(k *ckpt.Codec, op *journalOp) {
	walkClass(k, &op.class)
	k.U64(&op.ptr)
	k.Flag(&op.push)
}

// walkClass walks a size class. Decoding rejects one that indexes no
// free list.
func walkClass(k *ckpt.Codec, class *int) {
	k.Int(class)
	if *class < 0 || *class >= NumClasses {
		k.Failf("tcmalloc: size class %d out of range", *class)
	}
}
