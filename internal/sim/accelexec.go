package sim

import (
	"math"

	"repro/internal/isa"
)

// devUsesMemory reports whether the attached device's invocations read or
// write program memory (and therefore need ordering against the LSQ).
func devUsesMemory(dev isa.AccelDevice) bool {
	if dev == nil {
		return false
	}
	if u, ok := dev.(isa.AccelMemoryUser); ok {
		return u.UsesProgramMemory()
	}
	// A device that writes memory necessarily uses it; reads are implied
	// by the storer interface for the devices in this repo.
	_, stores := dev.(isa.AccelStorer)
	return stores
}

// overlayReader presents architectural memory with older, not-yet-committed
// stores applied, so a (possibly speculative) TCA invocation observes
// program-order memory state. This is the model of the dependency-checking
// hardware the T and L modes require.
type overlayReader struct {
	base    *isa.Memory
	pending map[uint64]uint64 // word address -> data
}

// Load implements isa.WordReader.
func (o *overlayReader) Load(addr uint64) uint64 {
	if v, ok := o.pending[addr>>3]; ok {
		return v
	}
	return o.base.Load(addr)
}

// LoadFloat implements isa.WordReader.
func (o *overlayReader) LoadFloat(addr uint64) float64 {
	return math.Float64frombits(o.Load(addr))
}

// buildOverlay collects the in-flight writes older than ROB position pos,
// visiting only the writer set (robQueue.writers). Callers guarantee every
// older store has executed (address and data known) and every older TCA
// invocation has started, so the overlay is complete. It refills the
// core's one reader: no device keeps the reader once Invoke returns.
func (c *Core) buildOverlay(pos int) *overlayReader {
	o := &c.overlay
	o.base = c.mem
	if o.pending == nil {
		o.pending = make(map[uint64]uint64)
	} else {
		clear(o.pending)
	}
	rob := c.rob
	// Oldest-first so newer writes overwrite older ones to the same word.
	for i := rob.next(rob.writers, 0); i >= 0 && i < pos; i = rob.next(rob.writers, i+1) {
		e := rob.at(i)
		if rob.hotAt(i).op.IsStore() {
			if e.addrKnown {
				o.pending[e.addr>>3] = e.storeData
			}
		} else if e.accelStarted {
			for _, s := range c.accelStoresOf(e) {
				o.pending[s.Addr>>3] = s.Data
			}
		}
	}
	return o
}

// lowConfBranchBefore reports whether an unresolved low-confidence branch
// is older than ROB position pos. Only the partial-speculation gate asks,
// at most once a cycle (for the oldest unstarted invocation), so it walks
// the ROB on demand rather than keeping an index.
func (c *Core) lowConfBranchBefore(pos int) bool {
	for i := 0; i < pos; i++ {
		if h := c.rob.hotAt(i); h.op.IsCondBranch() && h.state != sDone && !c.rob.at(i).predConfident {
			return true
		}
	}
	return false
}

// tryStartAccel begins a TCA invocation when the mode and hazards allow:
//
//   - operands ready and the single TCA unit free;
//   - program-order invocation: no older invocation still pending (device
//     state such as the heap manager's free lists must mutate in order);
//   - non-Leading modes: the instruction must be the oldest in flight
//     (every leading instruction committed — the ROB drain);
//   - memory-view safety: every older store executed and, for
//     memory-using devices, every older invocation started.
//
// On start the device is invoked functionally against the overlay view, its
// state journal is marked for possible rollback, and its occupancy schedule
// is executed by the device engine (runEngine): one phase per scalar-latency
// device, arbitrary deterministic phase sequences for engine devices. The
// invocation completes (becomes commit-eligible) when every phase's
// micro-operations have finished, as the paper's methodology requires.
func (c *Core) tryStartAccel(pos int, h *robHot, e *robEntry, olderStorePending, olderAccelPending, olderMemAccelPending bool) bool {
	if h.pendMask != 0 || olderAccelPending {
		return false
	}
	if c.tcaBusyUntil > c.now {
		return false
	}
	if !c.cfg.Mode.Leading() && pos != 0 {
		// Held by the NL restriction while operands were ready. Only the
		// oldest waiting invocation reaches here (younger ones fail the
		// olderAccelPending check above), so at most one entry per cycle
		// records the hold — fastForward replicates it per skipped cycle.
		e.accelHeld++
		c.cycleHeldAccel = e
		return false
	}
	// Partial speculation (§VIII future work): hold speculative starts
	// while a low-confidence branch is unresolved ahead of us. A non-head
	// invocation gets here only in a Leading mode, where the gate applies.
	if c.cfg.PartialSpeculation && pos != 0 && c.lowConfBranchBefore(pos) {
		c.stats.AccelConfidenceWait++
		c.cycleConfWait = true
		return false
	}
	// Only devices that read program memory must wait for older writes to
	// resolve; register-operand devices (heap tables, fixed-latency
	// blocks) start as soon as dispatched, as the model assumes.
	if c.devMem && (olderStorePending || olderMemAccelPending) {
		return false
	}

	if j, ok := c.dev.(isa.AccelJournal); ok {
		e.accelMark = j.Mark()
		e.accelHasMark = true
	}
	call := isa.AccelCall{
		Kind: e.in.Imm,
		Args: [3]uint64{e.operandValue(0), e.operandValue(1), e.operandValue(2)},
	}
	res, stores := isa.InvokeAndCollect(c.dev, call, c.buildOverlay(pos))
	c.accelEverInvoked = true
	e.accelStarted = true
	e.accelStart = c.now
	e.val = res.Value
	// The invocation's stores go into the shared arena; program-order
	// invocation starts mean squashed spans always form the arena suffix.
	e.storeOff = len(c.accelArena)
	c.accelArena = append(c.accelArena, stores...)
	e.storeCount = len(stores)
	if len(stores) > 0 {
		c.liveStores++
	}
	// Run the device engine: a scalar result is the degenerate one-phase
	// schedule, executed through the same path (runEngine) so the legacy
	// contract and the phased contract cannot drift apart.
	phases := res.Schedule
	if phases == nil {
		var one [1]isa.AccelPhase
		one[0] = isa.AccelPhase{Compute: res.Latency, MemOps: res.MemOps}
		phases = one[:]
	} else {
		c.stats.AccelPhases += uint64(len(phases))
	}
	end, memOps := c.runEngine(phases)
	e.accelMemOps = memOps
	c.stats.AccelMemOps += uint64(memOps)

	h.state = sIssued
	h.readyCycle = end
	c.tcaBusyUntil = end
	c.stats.AccelBusyCycles += end - c.now
	return true
}

// runEngine executes a device engine's occupancy schedule starting at the
// current cycle and returns the completion cycle plus the total memory
// operation count. Per phase: loads first, then compute, then stores. Each
// memory operation is one arbitration through the shared ports into the
// data hierarchy (the paper: "all memory requests required by the
// accelerator pass through arbitration for shared access to the core's LSQ
// and memory hierarchy"). Independent loads overlap; Serial loads chain
// behind their predecessor (address dependence). An Overlap phase hides
// memory time under compute (decoupled access/execute): it completes at
// max(loads done, start + Compute) rather than loadsDone + Compute, and the
// hidden cycles are tallied in Stats.AccelOverlapCycles.
//
// All port grants and hierarchy accesses are resolved now, at invocation
// time, exactly as the scalar contract always did — the schedule is
// deterministic given the invocation cycle, which is what keeps
// tcaBusyUntil a valid event-horizon candidate (events.go) and the
// checkpoint story unchanged (the engine holds no cross-cycle state beyond
// tcaBusyUntil itself).
func (c *Core) runEngine(phases []isa.AccelPhase) (end int64, memOps int) {
	start := c.now
	for _, ph := range phases {
		memOps += len(ph.MemOps)
		loadsDone := start
		prevDone := start
		for _, op := range ph.MemOps {
			if op.Store {
				continue
			}
			earliest := start + 1
			if op.Serial {
				earliest = prevDone
			}
			g := c.portGrant(earliest)
			done := c.hier.Access(g, op.Addr, false)
			prevDone = done
			if done > loadsDone {
				loadsDone = done
			}
		}
		computeDone := loadsDone + int64(ph.Compute)
		if ph.Overlap {
			memTime := loadsDone - start
			compTime := int64(ph.Compute)
			hidden := memTime
			if compTime < hidden {
				hidden = compTime
			}
			if hidden > 0 {
				c.stats.AccelOverlapCycles += hidden
			}
			computeDone -= hidden
		}
		storesDone := computeDone
		for _, op := range ph.MemOps {
			if !op.Store {
				continue
			}
			g := c.portGrant(computeDone)
			if done := c.hier.Access(g, op.Addr, true); done > storesDone {
				storesDone = done
			}
		}
		start = storesDone
	}
	return start, memOps
}

// fmaBits computes a fused multiply-add over float64 bit patterns.
func fmaBits(a, b, acc uint64) uint64 {
	return math.Float64bits(math.FMA(
		math.Float64frombits(a),
		math.Float64frombits(b),
		math.Float64frombits(acc)))
}
