package sim

import (
	"repro/internal/bpred"
	"repro/internal/isa"
)

// issue starts execution of ready instructions, oldest first, up to
// IssueWidth per cycle. The oldest-first order gives age priority at the
// shared memory ports. It visits only the candidate set (robQueue.cand):
// every other waiting entry has a pending operand and is neither a store
// nor a TCA invocation, so it could neither issue nor raise an ordering
// hazard for younger entries, and skipping it changes nothing.
func (c *Core) issue() {
	issued := 0
	sawUnissuedStore := false    // an older store has not produced addr+data yet
	sawStoreAddrUnknown := false // an older store's address is still unknown
	sawUnstartedAccel := false   // an older TCA invocation has not begun
	sawUnstartedMemAccel := false

	rob := c.rob
	for i := rob.next(rob.cand, 0); i >= 0 && issued < c.cfg.IssueWidth; i = rob.next(rob.cand, i+1) {
		h := rob.hotAt(i)
		e := rob.at(i)
		ok := false
		switch {
		case h.op == isa.OpAccel:
			ok = c.tryStartAccel(i, h, e, sawUnissuedStore, sawUnstartedAccel, sawUnstartedMemAccel)
		case h.op.IsLoad():
			storeHazard := sawStoreAddrUnknown
			if c.cfg.ConservativeLoadOrdering {
				storeHazard = sawUnissuedStore
			}
			ok = c.tryIssueLoad(i, h, e, storeHazard, sawUnstartedMemAccel)
		case h.op.IsStore():
			// Store address generation is decoupled from the data:
			// the address resolves as soon as the base register is
			// ready, letting younger loads disambiguate early the
			// way real LSQs do.
			if !e.addrKnown && h.pendMask&uint8(use1) == 0 {
				e.addr = e.operandValue(0) + uint64(e.in.Imm)
				e.addrKnown = true
				c.quiet = false // a state change even when the store stays waiting
			}
			ok = c.tryIssueStore(h, e)
		default:
			ok = c.tryIssueSimple(h, e)
		}
		if ok {
			rob.cand.remove(rob.slot(i))
			e.issueCycle = c.now
			c.iqCount--
			c.issuedCount++
			c.noteIssued(h)
			c.quiet = false
			issued++
			continue
		}
		// Still waiting: record ordering hazards for younger entries.
		if h.op.IsStore() {
			sawUnissuedStore = true
			if !e.addrKnown {
				sawStoreAddrUnknown = true
			}
		}
		if h.op == isa.OpAccel {
			sawUnstartedAccel = true
			if c.devMem {
				sawUnstartedMemAccel = true
			}
		}
	}
}

// tryIssueSimple handles ALU, FP, branch, and immediate-move instructions.
func (c *Core) tryIssueSimple(h *robHot, e *robEntry) bool {
	if h.pendMask != 0 {
		return false
	}
	op := h.op
	lat := int64(c.cfg.opLatency(op))
	busyUntil := c.now + 1
	if unpipelined(op) {
		busyUntil = c.now + lat
	}
	if !c.grabFU(fuFor(op), busyUntil) {
		return false
	}
	h.state = sIssued
	h.readyCycle = c.now + lat

	switch {
	case op.IsCondBranch():
		e.actualTaken = isa.EvalBranch(op, e.operandValue(0), e.operandValue(1))
		if e.actualTaken {
			e.nextPC = int(e.in.Imm)
		} else {
			e.nextPC = e.pc + 1
		}
		predNext := e.pc + 1
		if e.predTaken {
			predNext = int(e.in.Imm)
		}
		e.mispredict = e.nextPC != predNext
	case op == isa.OpMovI || op == isa.OpFMovI:
		e.val = uint64(e.in.Imm)
	case op == isa.OpAddI:
		e.val = e.operandValue(0) + uint64(e.in.Imm)
	case op == isa.OpFMA:
		e.val = fmaBits(e.operandValue(0), e.operandValue(1), e.operandValue(2))
	case op == isa.OpNop || op == isa.OpJmp:
		// no result
	case op.IsFP():
		e.val = isa.EvalFP(op, e.operandValue(0), e.operandValue(1))
	default:
		e.val = isa.EvalALU(op, e.operandValue(0), e.operandValue(1))
	}
	return true
}

// tryIssueStore completes a store's address and data capture; the memory
// write happens at commit.
func (c *Core) tryIssueStore(h *robHot, e *robEntry) bool {
	if h.pendMask != 0 {
		return false
	}
	h.state = sIssued
	h.readyCycle = c.now + 1
	e.addr = e.operandValue(0) + uint64(e.in.Imm)
	e.storeData = e.operandValue(1)
	e.addrKnown = true
	return true
}

// forwardStatus is the outcome of searching older in-flight writes.
type forwardStatus uint8

const (
	fwdNone  forwardStatus = iota // no older write to the word
	fwdHit                        // forwardable value found
	fwdBlock                      // matching older store's data not ready yet
)

// tryIssueLoad issues a load once every older store's address is known
// (decoupled store AGU) and every older memory-using TCA has produced its
// stores. Matching older writes forward their data; otherwise the load
// goes to the cache through a shared port.
func (c *Core) tryIssueLoad(pos int, h *robHot, e *robEntry, olderStoreAddrUnknown, olderMemAccelPending bool) bool {
	if h.pendMask != 0 || olderStoreAddrUnknown || olderMemAccelPending {
		return false
	}
	e.addr = e.operandValue(0) + uint64(e.in.Imm)
	e.addrKnown = true
	word := e.addr >> 3

	// Newest older write to the same word wins.
	v, when, status := c.forwardScan(pos, word)
	switch status {
	case fwdBlock:
		return false
	case fwdHit:
		h.state = sIssued
		e.forwarded = true
		e.val = v
		h.readyCycle = max(c.now+2, when+1)
		return true
	}
	h.state = sIssued
	grant := c.portGrant(c.now + 1) // one AGU cycle, then the port
	h.readyCycle = c.hier.Access(grant, e.addr, false)
	e.val = c.mem.Load(e.addr)
	return true
}

// forwardScan looks newest-first through older in-flight writes for the
// given word address, visiting only the writer set (robQueue.writers). A
// matching store that has not captured its data yet blocks the load
// (fwdBlock).
func (c *Core) forwardScan(pos int, word uint64) (val uint64, when int64, status forwardStatus) {
	rob := c.rob
	for i := rob.prev(rob.writers, pos-1); i >= 0; i = rob.prev(rob.writers, i-1) {
		oh := rob.hotAt(i)
		o := rob.at(i)
		if oh.op.IsStore() {
			if !o.addrKnown || o.addr>>3 != word {
				continue
			}
			if oh.state == sWaiting {
				return 0, 0, fwdBlock
			}
			return o.storeData, oh.readyCycle, fwdHit
		}
		// A TCA invocation: once started, its pending stores forward.
		if !o.accelStarted {
			continue
		}
		stores := c.accelStoresOf(o)
		for j := len(stores) - 1; j >= 0; j-- {
			if stores[j].Addr>>3 == word {
				return stores[j].Data, oh.readyCycle, fwdHit
			}
		}
	}
	return 0, 0, fwdNone
}

// dispatch moves instructions from the front-end queue into the ROB and
// issue queue, renaming their sources. It models the NT barrier: while a
// non-trailing TCA is in flight, dispatch is frozen.
func (c *Core) dispatch() {
	// Each stall return records the incremented counter: on a quiet cycle
	// dispatch increments exactly one, and the cause is pinned until the
	// event horizon, so fastForward replicates it per skipped cycle.
	for n := 0; n < c.cfg.DispatchWidth; n++ {
		if c.barrierActive {
			c.stats.DispatchStalls.Barrier++
			c.cycleStall = &c.stats.DispatchStalls.Barrier
			return
		}
		if c.fetchHead >= len(c.fetchQ) || c.fetchQ[c.fetchHead].availAt > c.now {
			c.stats.DispatchStalls.FrontEnd++
			c.cycleStall = &c.stats.DispatchStalls.FrontEnd
			return
		}
		if c.rob.full() {
			c.stats.DispatchStalls.ROBFull++
			c.cycleStall = &c.stats.DispatchStalls.ROBFull
			return
		}
		if c.iqCount >= c.cfg.IQSize {
			c.stats.DispatchStalls.IQFull++
			c.cycleStall = &c.stats.DispatchStalls.IQFull
			return
		}
		f := &c.fetchQ[c.fetchHead]
		if f.in.Op.IsMem() && c.lsqCount >= c.cfg.LSQSize {
			c.stats.DispatchStalls.LSQFull++
			c.cycleStall = &c.stats.DispatchStalls.LSQFull
			return
		}
		c.fetchHead++
		c.quiet = false

		slot, h, e := c.rob.push()
		*h = robHot{
			seq:        c.seq,
			op:         f.in.Op,
			state:      sWaiting,
			readyCycle: c.now,
		}
		// The cold entry is cleared and filled in place: assigning a
		// composite literal would build it on the stack and copy it.
		*e = robEntry{}
		e.pc = f.pc
		e.in = f.in
		e.dispatchCycle = c.now
		e.predTaken = f.predTaken
		e.predConfident = f.predConfident
		c.seq++

		// Rename sources.
		m := srcMask(f.in.Op)
		fields := [3]isa.Reg{f.in.Src1, f.in.Src2, f.in.Src3}
		for i, r := range fields {
			if m&(1<<uint(i)) == 0 || r == isa.RZero {
				continue
			}
			if rn := c.rename[r]; rn.valid {
				if pi := c.rob.indexOf(rn.seq); pi >= 0 {
					if ph := c.rob.hotAt(pi); ph.state != sDone {
						e.srcs[i] = operand{producer: rn.seq}
						h.pendMask |= 1 << uint(i)
						ph.wakeUses++
						c.rob.addDep(c.rob.slot(pi), slot, i)
					} else {
						e.srcs[i] = operand{value: c.rob.at(pi).val}
					}
					continue
				}
			}
			e.srcs[i] = operand{value: c.arf[r]}
		}
		if f.in.HasDst() {
			c.rename[f.in.Dst].valid = true
			c.rename[f.in.Dst].seq = h.seq
		}

		switch f.in.Op {
		case isa.OpHalt:
			// Halt needs no execution.
			h.state = sDone
			e.issueCycle = c.now
		case isa.OpAccel:
			c.accelDispatched = true
			c.iqCount++
			if !c.cfg.Mode.Trailing() {
				c.barrierActive = true
				c.barrierSeq = h.seq
			}
		default:
			c.iqCount++
		}
		if f.in.Op.IsMem() {
			c.lsqCount++
		}
		if h.isWriter() {
			c.rob.writers.add(slot)
		}
		if h.isCandidate() {
			c.rob.cand.add(slot)
		}
	}
}

// Instruction-side addressing: 4 bytes per instruction in a dedicated
// region far above data addresses, so I- and D-lines never alias in the
// shared L2.
const (
	instrBytes = 4
	iSpaceBase = uint64(1) << 40
)

// iLineOf returns the instruction-cache line index holding pc.
func (c *Core) iLineOf(pc int) int64 {
	return int64(pc) * instrBytes / 64
}

// fetch fills the front-end queue along the predicted path, paying
// instruction-cache latency at line boundaries when the I-side is modeled.
func (c *Core) fetch() {
	if c.fetchStopped || c.now < c.fetchResumeAt {
		return
	}
	capacity := c.cfg.FetchWidth * (c.cfg.FrontEndDepth + 2)
	// Reclaim the consumed prefix so appends reuse the backing array.
	if c.fetchHead > 0 {
		if c.fetchHead == len(c.fetchQ) {
			c.fetchQ = c.fetchQ[:0]
			c.fetchHead = 0
		} else if c.fetchHead >= capacity {
			n := copy(c.fetchQ, c.fetchQ[c.fetchHead:])
			c.fetchQ = c.fetchQ[:n]
			c.fetchHead = 0
		}
	}
	for n := 0; n < c.cfg.FetchWidth && len(c.fetchQ)-c.fetchHead < capacity; n++ {
		// Every path below changes state (stop, I-line switch, or an
		// append), so reaching the body at all marks the cycle active.
		c.quiet = false
		if c.fetchPC < 0 || c.fetchPC >= len(c.prog.Code) {
			// Wrong-path fetch ran off the program; stall until a
			// squash redirects fetch.
			c.fetchStopped = true
			return
		}
		if c.hier.IFetchEnabled() {
			if line := c.iLineOf(c.fetchPC); line != c.curFetchLine {
				c.curFetchLine = line
				addr := iSpaceBase + uint64(line)*64
				done := c.hier.IFetch(c.now, addr)
				if wait := done - int64(c.cfg.Memory.L1I.HitLatency); wait > c.now {
					// Line not ready: resume when it arrives. The hit
					// latency itself is folded into FrontEndDepth.
					c.fetchResumeAt = wait
					return
				}
			}
		}
		in := c.prog.Code[c.fetchPC]
		if in.Op == isa.OpAccel {
			// The first accel fetch (wrong-path included) is the warmup
			// boundary RunToAccelFetch pauses at: the appended OpAccel
			// cannot dispatch before the next cycle, so pausing at now+1
			// still precedes every suffix-config-dependent decision.
			c.sawAccelFetch = true
			if c.pauseOnAccelFetch {
				c.pauseAt = c.now + 1
			}
		}
		f := fetchedInst{pc: c.fetchPC, in: in, availAt: c.now + int64(c.cfg.FrontEndDepth)}
		c.stats.Fetched++
		switch {
		case in.Op == isa.OpHalt:
			c.fetchQ = append(c.fetchQ, f)
			c.fetchStopped = true
			return
		case in.Op == isa.OpJmp:
			c.fetchQ = append(c.fetchQ, f)
			c.fetchPC = int(in.Imm)
		case in.Op.IsCondBranch():
			f.predTaken = c.pred.Predict(uint64(c.fetchPC))
			f.predConfident = true
			if ce, ok := c.pred.(bpred.ConfidenceEstimator); ok {
				f.predConfident = ce.Confident(uint64(c.fetchPC))
			}
			c.fetchQ = append(c.fetchQ, f)
			if f.predTaken {
				c.fetchPC = int(in.Imm)
			} else {
				c.fetchPC++
			}
		default:
			c.fetchQ = append(c.fetchQ, f)
			c.fetchPC++
		}
	}
}
