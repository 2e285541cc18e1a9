package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
)

// entryState tracks an instruction's progress through the backend.
type entryState uint8

const (
	// sWaiting: dispatched, in the issue queue, not yet executing.
	sWaiting entryState = iota
	// sIssued: executing; result arrives at readyCycle.
	sIssued
	// sDone: execution complete; eligible to commit after CommitDelay.
	sDone
)

// operand is one renamed source: either the value is known, or the entry's
// pendMask bit for this source is set and producer names the sequence number
// being waited on.
type operand struct {
	producer uint64
	value    uint64
}

// robHot is the per-entry state the busy-cycle walks actually touch:
// issue reads op and pendMask of each candidate, wakeup clears pendMask
// bits of a producer's consumers and counts down its wakeUses, forwarding
// reads op/state/readyCycle of older writers, completion matches seq and
// readyCycle, and the horizon probes the head's state/readyCycle. Packing
// these into their own slab keeps those walks at a few cache lines instead
// of dragging the full entry (robEntry, several lines each) through cache.
type robHot struct {
	seq        uint64
	readyCycle int64
	op         isa.Op
	state      entryState
	// pendMask has bit i set while source i waits on a producer
	// (srcs[i].producer in the cold entry). All sources ready == 0.
	pendMask uint8
	// wakeUses counts pending dependent operands waiting on this entry's
	// result: the length of its dependent chain (robQueue.depHead). It
	// bounds wake's walk of the chain, so a broken chain cannot spin,
	// and restoreFrom checks every rebuilt chain against it.
	wakeUses int32
}

// robEntry is the cold remainder of one in-flight instruction: fields
// touched once or twice per instruction (dispatch, execute, commit) rather
// than per busy cycle.
type robEntry struct {
	pc            int
	in            isa.Instruction
	dispatchCycle int64
	issueCycle    int64

	// srcs correspond to Src1, Src2, Src3; only fields named by srcMask
	// are meaningful.
	srcs [3]operand

	val uint64 // result value

	// Branch bookkeeping.
	predTaken     bool
	predConfident bool // prediction was high confidence at fetch
	actualTaken   bool
	nextPC        int // resolved next pc
	mispredict    bool

	// Memory bookkeeping.
	addrKnown bool
	addr      uint64
	storeData uint64
	forwarded bool

	// Accelerator bookkeeping. The invocation's pending stores live in the
	// core's shared accelStores arena as the range
	// [storeOff, storeOff+storeCount) — see Core.accelStoresOf.
	accelStarted bool
	accelHasMark bool
	accelMark    int
	storeOff     int
	storeCount   int
	accelMemOps  int
	accelStart   int64
	accelHeld    int64 // cycles held ready by the NL restriction
}

// srcUse flags which instruction fields an opcode reads.
type srcUse uint8

const (
	use1 srcUse = 1 << iota
	use2
	use3
)

func srcMask(op isa.Op) srcUse {
	switch op {
	case isa.OpNop, isa.OpHalt, isa.OpMovI, isa.OpFMovI, isa.OpJmp:
		return 0
	case isa.OpAddI, isa.OpLoad, isa.OpFLoad:
		return use1
	case isa.OpFMA, isa.OpAccel:
		return use1 | use2 | use3
	default:
		return use1 | use2
	}
}

// isWriter reports whether the entry is a store or a TCA invocation: the
// entries whose writes younger loads forward from and TCA invocations
// read through the memory overlay.
func (h *robHot) isWriter() bool { return h.op.IsStore() || h.op == isa.OpAccel }

// isCandidate reports whether issue must visit the entry: it is waiting
// and either its operands are ready or it is a writer. A waiting store
// generates its address as soon as its base is ready and, like a waiting
// TCA invocation, raises ordering hazards for younger entries whatever its
// operands; any other waiting entry with a pending operand can do neither.
func (h *robHot) isCandidate() bool {
	return h.state == sWaiting && (h.pendMask == 0 || h.isWriter())
}

// slotSet is a bitset over the ROB ring's physical slots.
type slotSet []uint64

func (s slotSet) add(slot int)    { s[slot>>6] |= 1 << uint(slot&63) }
func (s slotSet) remove(slot int) { s[slot>>6] &^= 1 << uint(slot&63) }

// robQueue is a ring buffer of in-flight instructions, oldest first, split
// into parallel hot/cold slabs indexed identically (struct-of-arrays).
// Sequence numbers of resident entries are contiguous, so lookup by seq is
// O(1). The backing arrays are a power of two so position arithmetic is a
// mask.
//
// cand and writers index the residents by physical slot (DESIGN.md, "Issue
// select"): cand holds exactly the entries for which isCandidate holds,
// writers those for which isWriter holds. Both are derived from the slabs —
// dispatch indexes each new entry, wakeup and issue keep cand current,
// popHead and truncate drop departing slots from both, and reindex
// rebuilds them after a checkpoint restore — so neither is ever
// serialized.
//
// depHead and depNext thread every in-flight producer's waiting operands
// into a chain, newest first (DESIGN.md, "Issue select"). Operand node
// slot*3+src is source src of the entry in slot; depHead[slot] is the
// newest node waiting on the entry in slot, or -1, and depNext[node] the
// next older node waiting on the same producer. The chains are derived
// state too: dispatch pushes, squashAfter pops, wake empties, and reindex
// rebuilds them.
type robQueue struct {
	hot     []robHot
	cold    []robEntry
	cand    slotSet
	writers slotSet
	depHead []int32
	depNext []int32
	mask    int
	head    int
	count   int
	limit   int // architectural capacity (<= len(hot))
}

func newROBQueue(capacity int) *robQueue {
	size := 1
	for size < capacity {
		size <<= 1
	}
	words := (size + 63) / 64
	return &robQueue{
		hot:     make([]robHot, size),
		cold:    make([]robEntry, size),
		cand:    make(slotSet, words),
		writers: make(slotSet, words),
		depHead: make([]int32, size),
		depNext: make([]int32, 3*size),
		mask:    size - 1,
		limit:   capacity,
	}
}

func (q *robQueue) len() int   { return q.count }
func (q *robQueue) full() bool { return q.count == q.limit }

// slot returns the physical slot of the i'th oldest entry (0 = head).
func (q *robQueue) slot(i int) int { return (q.head + i) & q.mask }

// hotAt returns the i'th oldest entry's hot state (0 = head).
func (q *robQueue) hotAt(i int) *robHot {
	return &q.hot[q.slot(i)]
}

// at returns the i'th oldest entry's cold state (0 = head).
func (q *robQueue) at(i int) *robEntry {
	return &q.cold[q.slot(i)]
}

// indexOf returns the position (0 = head) of the resident entry with the
// given sequence number, or -1. Residents are seq-contiguous, so this is
// O(1).
func (q *robQueue) indexOf(seq uint64) int {
	if q.count == 0 {
		return -1
	}
	first := q.hotAt(0).seq
	if seq < first || seq >= first+uint64(q.count) {
		return -1
	}
	return int(seq - first)
}

// next returns the oldest position in [i, len) whose slot is in s, or -1.
// Each step takes the rest of one word (cut at the ring's end and at the
// window's end), so a walk costs a few instructions per set member and
// one per 64 slots skipped.
func (q *robQueue) next(s slotSet, i int) int {
	for i < q.count {
		p := q.slot(i)
		n := min(64-p&63, q.mask+1-p, q.count-i)
		w := s[p>>6] >> uint(p&63)
		if n < 64 {
			w &= 1<<uint(n) - 1
		}
		if w != 0 {
			return i + bits.TrailingZeros64(w)
		}
		i += n
	}
	return -1
}

// prev returns the newest position in [0, i] whose slot is in s, or -1.
func (q *robQueue) prev(s slotSet, i int) int {
	for i >= 0 {
		p := q.slot(i)
		n := min(p&63+1, i+1)
		w := s[p>>6] << uint(63-p&63)
		if n < 64 {
			w &= ^uint64(0) << uint(64-n)
		}
		if w != 0 {
			return i - bits.LeadingZeros64(w)
		}
		i -= n
	}
	return -1
}

// push appends a new entry, with nothing waiting on it yet, and returns
// its slot and both halves for initialization; the caller indexes the
// entry once it is initialized.
func (q *robQueue) push() (int, *robHot, *robEntry) {
	i := q.slot(q.count)
	q.count++
	q.depHead[i] = -1
	return i, &q.hot[i], &q.cold[i]
}

// addDep pushes source src of the entry in slot onto the dependent chain
// of the producer in pslot.
func (q *robQueue) addDep(pslot, slot, src int) {
	n := int32(slot*3 + src)
	q.depNext[n] = q.depHead[pslot]
	q.depHead[pslot] = n
}

// popDep drops the newest node from the dependent chain of the producer
// in pslot. Dispatch pushes in program order, so a squashed consumer's
// operands are always the newest nodes of their producer's chain.
func (q *robQueue) popDep(pslot int) {
	q.depHead[pslot] = q.depNext[q.depHead[pslot]]
}

// popHead removes the oldest entry.
func (q *robQueue) popHead() {
	q.cand.remove(q.head)
	q.writers.remove(q.head)
	q.head = (q.head + 1) & q.mask
	q.count--
}

// truncate keeps only the n oldest entries (squash).
func (q *robQueue) truncate(n int) {
	for i := n; i < q.count; i++ {
		q.cand.remove(q.slot(i))
		q.writers.remove(q.slot(i))
	}
	q.count = n
}

// reindex rebuilds cand, writers and the dependent chains from the slabs
// and returns the number of waiting entries. The chains are rebuilt
// oldest-first, as dispatch built them. It fails when a pending operand
// does not wait on an older in-flight resident or an entry's wakeUses
// differs from its chain's length: no wakeup would reach that consumer.
func (q *robQueue) reindex() (waiting int, err error) {
	clear(q.cand)
	clear(q.writers)
	for i := 0; i < q.count; i++ {
		slot := q.slot(i)
		h := &q.hot[slot]
		q.depHead[slot] = -1
		if h.isCandidate() {
			q.cand.add(slot)
		}
		if h.isWriter() {
			q.writers.add(slot)
		}
		if h.state == sWaiting {
			waiting++
		}
		if h.pendMask != 0 && (h.state != sWaiting || h.pendMask>>3 != 0) {
			return 0, fmt.Errorf("entry seq %d: pend mask %#x in state %d", h.seq, h.pendMask, h.state)
		}
		for s := range q.cold[slot].srcs {
			if h.pendMask&(1<<uint(s)) == 0 {
				continue
			}
			p := q.cold[slot].srcs[s].producer
			pi := q.indexOf(p)
			if pi < 0 || pi >= i || q.hotAt(pi).state == sDone {
				return 0, fmt.Errorf("entry seq %d source %d waits on seq %d, not an older in-flight entry", h.seq, s, p)
			}
			q.addDep(q.slot(pi), slot, s)
		}
	}
	for i := 0; i < q.count; i++ {
		slot := q.slot(i)
		n := 0
		for d := q.depHead[slot]; d >= 0; d = q.depNext[d] {
			n++
		}
		if h := &q.hot[slot]; int32(n) != h.wakeUses {
			return 0, fmt.Errorf("entry seq %d: wakeUses %d, %d operands wait on it", h.seq, h.wakeUses, n)
		}
	}
	return waiting, nil
}
