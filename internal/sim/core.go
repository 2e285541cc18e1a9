package sim

import (
	"errors"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/mem"
)

// ErrCycleLimit is returned when a run exceeds its cycle budget.
var ErrCycleLimit = errors.New("sim: cycle limit exceeded")

// ErrDeadlock is returned when no instruction commits for a long stretch,
// which indicates a simulator or workload bug rather than a slow program.
var ErrDeadlock = errors.New("sim: no commit progress")

// deadlockWindow is the commit-progress watchdog threshold in cycles. It
// comfortably exceeds any legitimate stall (a full DRAM-bound ROB drain is
// thousands of cycles, not hundreds of thousands).
const deadlockWindow = 500_000

// fetchedInst is one front-end slot.
type fetchedInst struct {
	pc            int
	in            isa.Instruction
	predTaken     bool
	predConfident bool
	availAt       int64 // earliest dispatch cycle (front-end depth)
}

// Result is the outcome of a completed simulation.
type Result struct {
	Stats Stats
	// Regs is the final architectural register file.
	Regs [isa.NumRegs]uint64
	// Mem is the final architectural memory image.
	Mem *isa.Memory
}

// Core is one out-of-order core instance bound to a program. A Core runs a
// single program once; build a new Core for each run.
type Core struct {
	cfg  Config
	prog *isa.Program
	dev  isa.AccelDevice
	// devMem caches devUsesMemory(dev): whether invocations must be
	// ordered against older stores and memory-using invocations.
	devMem bool

	mem  *isa.Memory
	hier *mem.Hierarchy
	pred bpred.Predictor

	now int64
	seq uint64

	arf    [isa.NumRegs]uint64
	rename [isa.NumRegs]struct {
		valid bool
		seq   uint64
	}

	rob         *robQueue
	iqCount     int
	lsqCount    int
	issuedCount int // entries in sIssued (executing) state

	// accelArena backs the pending-store spans of in-flight TCA
	// invocations (robEntry.storeOff/storeCount). Invocations start in
	// program order, so squashed spans are always an arena suffix and
	// squash truncates; the arena resets to empty whenever no resident
	// invocation holds stores (liveStores == 0), bounding growth.
	accelArena []isa.AccelStore
	liveStores int

	// fetchQ is consumed from fetchHead instead of re-slicing the front,
	// so dispatch pops keep the backing array (fetch compacts it once the
	// dead prefix grows past the queue capacity).
	fetchQ        []fetchedInst
	fetchHead     int
	fetchPC       int
	fetchResumeAt int64
	fetchStopped  bool  // saw (possibly wrong-path) halt
	curFetchLine  int64 // I-cache line currently feeding fetch (-1 = none)

	// barrierSeq is the NT dispatch barrier: while valid, dispatch is
	// stalled until the accel with this seq commits.
	barrierSeq    uint64
	barrierActive bool

	fu           [numFUClasses][]int64 // per-unit next-free cycle
	ports        []int64               // memory port next-free cycles
	tcaBusyUntil int64

	halted          bool
	lastCommitCycle int64

	// Checkpoint/pause plumbing. pauseAt makes runLoop return (without
	// finalizing) at the first cycle boundary at or after it;
	// pauseOnAccelFetch arms fetch() to set pauseAt when it fetches the
	// first OpAccel. The remaining flags track checkpoint legality:
	// sawAccelFetch (a wrong-path accel fetch counts), accelDispatched
	// (post-warmup configuration fields have been consulted), and
	// accelEverInvoked (the device holds post-construction state).
	pauseAt           int64
	pauseOnAccelFetch bool
	sawAccelFetch     bool
	accelDispatched   bool
	accelEverInvoked  bool

	// pend schedules pending completions (one record per issue); due is
	// the reusable scratch batch complete() drains into each cycle.
	pend compHeap
	due  []compRecord

	// quiet is true while the current cycle has made no state change; the
	// cycle trackers record the per-cycle counter increments that
	// fastForward must replicate for skipped cycles. All four reset at the
	// top of every runLoop iteration.
	quiet          bool
	cycleStall     *int64
	cycleHeldAccel *robEntry
	cycleConfWait  bool

	stats Stats
}

// New builds a core for the program. dev may be nil when the program
// contains no OpAccel instructions.
func New(cfg Config, prog *isa.Program, dev isa.AccelDevice) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	pred, err := cfg.Predictor.Build()
	if err != nil {
		return nil, err
	}
	if dev == nil {
		for _, in := range prog.Code {
			if in.Op == isa.OpAccel {
				return nil, fmt.Errorf("sim: program uses accel instructions but no device attached")
			}
		}
	}
	c := &Core{
		cfg:    cfg,
		prog:   prog,
		dev:    dev,
		mem:    prog.NewMemoryImage(),
		hier:   mem.NewHierarchy(cfg.Memory),
		pred:   pred,
		rob:    newROBQueue(cfg.ROBSize),
		devMem: devUsesMemory(dev),
	}
	c.curFetchLine = -1
	c.pauseAt = horizonNever
	// Compaction keeps the live window within one capacity of the head,
	// so 2x capacity never reallocates.
	c.fetchQ = make([]fetchedInst, 0, 2*cfg.FetchWidth*(cfg.FrontEndDepth+2))
	// The completion heap and its drain batch are bounded by the in-flight
	// population; sizing them up front keeps the busy loop and fastForward
	// allocation-free.
	c.pend = make(compHeap, 0, cfg.ROBSize)
	c.due = make([]compRecord, 0, cfg.ROBSize)
	c.fu[fuALU] = make([]int64, cfg.IntALUs)
	c.fu[fuMul] = make([]int64, cfg.IntMuls)
	c.fu[fuFP] = make([]int64, cfg.FPUs)
	// fuMem units are unused: memory timing goes through the shared
	// port scheduler so the TCA and core contend for the same bandwidth.
	c.fu[fuMem] = nil
	c.ports = make([]int64, cfg.MemPorts)
	return c, nil
}

// Hierarchy exposes the memory system for statistics inspection.
func (c *Core) Hierarchy() *mem.Hierarchy { return c.hier }

// Cycle returns the current simulation cycle (the clock only advances
// through runLoop/fastForward; this is a read-only observation, used by
// callers sizing checkpoint decisions).
func (c *Core) Cycle() int64 { return c.now }

// Run simulates until the program's halt commits, the cycle budget is
// exhausted, or the deadlock watchdog fires. Run finalizes the statistics;
// it is also the resume path after a paused RunTo/RunToAccelFetch.
func (c *Core) Run(maxCycles int64) (*Result, error) {
	c.pauseAt = horizonNever
	c.pauseOnAccelFetch = false
	if err := c.runLoop(maxCycles); err != nil {
		return nil, err
	}
	c.stats.Cycles = c.now + 1
	return &Result{Stats: c.stats, Regs: c.arf, Mem: c.mem}, nil
}

// RunTo simulates until the first cycle boundary at or after target (or
// until halt/error, whichever comes first) and reports whether the core
// paused there. Fast-forward jumps are not split: a jump over target pauses
// at the jump's landing cycle, so the FastForwardedCycles/Jumps counters
// stay bit-identical with an uninterrupted run. A paused core may be
// checkpointed and must be finished with Run.
func (c *Core) RunTo(maxCycles, target int64) (paused bool, err error) {
	c.pauseAt = target
	c.pauseOnAccelFetch = false
	err = c.runLoop(maxCycles)
	c.pauseAt = horizonNever
	if err != nil {
		return false, err
	}
	return !c.halted, nil
}

// RunToAccelFetch simulates until the cycle boundary after the first OpAccel
// instruction enters the fetch queue — wrong-path fetches count, keeping the
// boundary independent of post-warmup configuration — and reports whether
// the core paused there. If the program halts (or has already halted) before
// any accel fetch, it returns false with the core ready for Run.
func (c *Core) RunToAccelFetch(maxCycles int64) (paused bool, err error) {
	if c.sawAccelFetch {
		return !c.halted, nil
	}
	c.pauseAt = horizonNever
	c.pauseOnAccelFetch = true
	err = c.runLoop(maxCycles)
	c.pauseOnAccelFetch = false
	c.pauseAt = horizonNever
	if err != nil {
		return false, err
	}
	return !c.halted, nil
}

// runLoop is the tick loop shared by Run and the pausing entry points. It
// returns nil when the core halts or reaches pauseAt; the caller finalizes
// (Run) or reports the pause (RunTo/RunToAccelFetch). The pause check runs
// before the budget and watchdog checks so a paused-and-resumed run
// re-raises ErrCycleLimit/ErrDeadlock with bit-identical messages.
func (c *Core) runLoop(maxCycles int64) error {
	ff := !c.cfg.NoFastForward
	for !c.halted {
		if c.now >= c.pauseAt {
			return nil
		}
		if c.now >= maxCycles {
			return fmt.Errorf("%w after %d cycles (%d committed) pc=%d",
				ErrCycleLimit, c.now, c.stats.Committed, c.fetchPC)
		}
		if c.now-c.lastCommitCycle > deadlockWindow {
			return fmt.Errorf("%w for %d cycles at cycle %d: %s",
				ErrDeadlock, c.now-c.lastCommitCycle, c.now, c.describeHead())
		}
		c.quiet = true
		c.cycleStall = nil
		c.cycleHeldAccel = nil
		c.cycleConfWait = false
		c.complete()
		c.commit()
		if c.halted {
			break
		}
		c.issue()
		c.dispatch()
		c.fetch()
		occupancy := int64(c.rob.len())
		c.stats.ROBOccupancySum += occupancy
		c.now++
		if ff && c.quiet {
			c.fastForward(maxCycles, occupancy)
		}
	}
	return nil
}

// accelStoresOf returns the pending-store span of a started invocation.
func (c *Core) accelStoresOf(e *robEntry) []isa.AccelStore {
	if e.storeCount == 0 {
		return nil
	}
	return c.accelArena[e.storeOff : e.storeOff+e.storeCount]
}

// describeHead summarizes the ROB head for deadlock diagnostics.
func (c *Core) describeHead() string {
	if c.rob.len() == 0 {
		return fmt.Sprintf("rob empty, fetchPC=%d, fetchStopped=%v, barrier=%v",
			c.fetchPC, c.fetchStopped, c.barrierActive)
	}
	h := c.rob.hotAt(0)
	e := c.rob.at(0)
	return fmt.Sprintf("rob head seq=%d pc=%d %s state=%d ready=%d srcReady=%v",
		h.seq, e.pc, e.in, h.state, h.readyCycle, h.pendMask == 0)
}

// portGrant reserves the earliest-available memory port at or after start
// and returns the granted cycle. Requests arriving earlier get earlier
// grants, so the oldest-first issue select yields the age-priority
// arbitration the paper's methodology specifies.
func (c *Core) portGrant(start int64) int64 {
	best := 0
	for i := 1; i < len(c.ports); i++ {
		if c.ports[i] < c.ports[best] {
			best = i
		}
	}
	g := start
	if c.ports[best] > g {
		g = c.ports[best]
	}
	c.ports[best] = g + 1
	return g
}

// grabFU reserves a functional unit of the class if one is free this cycle,
// holding it until busyUntil. It reports whether a unit was available.
func (c *Core) grabFU(class fuClass, busyUntil int64) bool {
	units := c.fu[class]
	for i := range units {
		if units[i] <= c.now {
			units[i] = busyUntil
			return true
		}
	}
	return false
}

// operandValue returns the resolved value of source field i (0-based).
func (e *robEntry) operandValue(i int) uint64 { return e.srcs[i].value }

// complete transitions issued entries whose results have arrived, wakes
// dependents, trains the branch predictor, and handles mispredict squashes.
//
// Pending completions live in the pend min-heap (one record pushed per
// issue via noteIssued), so a cycle with nothing due is an O(1) peek
// instead of an O(ROB) scan. Records are not removed on squash: a popped
// record is acted on only if the resident entry with that sequence number
// is still sIssued with the recorded readyCycle. (Sequence numbers are
// reused after squashes; a coincidental match is still a correct
// completion, since the entry is then genuinely due.) The due batch is
// processed in sequence order — the tick-scan's ROB-position order — so
// predictor update order and the choice of squashing branch are preserved.
func (c *Core) complete() {
	if len(c.pend) == 0 || c.pend[0].cycle > c.now {
		return
	}
	c.due = c.due[:0]
	for len(c.pend) > 0 && c.pend[0].cycle <= c.now {
		c.due = append(c.due, c.popPend())
	}
	sortDueBySeq(c.due)
	for _, r := range c.due {
		pos := c.rob.indexOf(r.seq)
		if pos < 0 {
			continue // squashed
		}
		h := c.rob.hotAt(pos)
		if h.state != sIssued || h.readyCycle != r.cycle {
			continue // duplicate record, or the seq was reused
		}
		h.state = sDone
		c.issuedCount--
		c.quiet = false
		c.wake(pos, h)
		if h.op.IsCondBranch() {
			e := c.rob.at(pos)
			c.pred.Update(uint64(e.pc), e.actualTaken)
			if e.mispredict {
				c.stats.Mispredicts++
				c.squashAfter(pos)
				c.redirect(e.nextPC)
				// The unprocessed remainder of the batch is strictly
				// younger (seq order), hence squashed; drop it.
				return
			}
		}
	}
}

// noteIssued schedules the completion of a newly issued entry.
func (c *Core) noteIssued(h *robHot) {
	c.pushPend(compRecord{cycle: h.readyCycle, seq: h.seq})
}

// wake delivers a completed result to every dependent operand. Dependents
// are strictly younger, so the scan starts after the producer's position
// and stops as soon as the producer's wakeUses consumers are all served.
// The scan reads only the hot slab until a dependent actually matches.
func (c *Core) wake(pos int, h *robHot) {
	val := c.rob.at(pos).val
	for i := pos + 1; h.wakeUses > 0 && i < c.rob.len(); i++ {
		dh := c.rob.hotAt(i)
		if dh.state != sWaiting || dh.pendMask == 0 {
			continue
		}
		d := c.rob.at(i)
		for s := range d.srcs {
			if dh.pendMask&(1<<uint(s)) != 0 && d.srcs[s].producer == h.seq {
				dh.pendMask &^= 1 << uint(s)
				d.srcs[s].value = val
				h.wakeUses--
			}
		}
		if dh.pendMask == 0 {
			c.rob.cand.add(c.rob.slot(i))
		}
	}
}

// redirect restarts fetch at pc on the next cycle.
func (c *Core) redirect(pc int) {
	c.fetchQ = c.fetchQ[:0]
	c.fetchHead = 0
	c.fetchPC = pc
	c.fetchResumeAt = c.now + 1
	c.fetchStopped = false
	c.curFetchLine = -1 // the target line must be re-checked in the I-cache
}

// squashAfter removes every entry younger than position keep, rolling back
// accelerator state and rebuilding the rename table.
func (c *Core) squashAfter(keep int) {
	first := keep + 1
	if first >= c.rob.len() {
		return
	}
	// Roll back speculative accelerator invocations: rewinding to the
	// oldest squashed invocation's mark undoes it and everything younger
	// (marks grow in program order because invocations are issued in
	// program order).
	if j, ok := c.dev.(isa.AccelJournal); ok {
		for i := first; i < c.rob.len(); i++ {
			if c.rob.hotAt(i).op != isa.OpAccel {
				continue
			}
			e := c.rob.at(i)
			if e.accelStarted && e.accelHasMark {
				j.Rewind(e.accelMark)
				break
			}
		}
	}
	// Squashed invocations' store spans are an arena suffix (program-order
	// starts); drop them by truncating at the oldest squashed span.
	arenaKeep := len(c.accelArena)
	for i := first; i < c.rob.len(); i++ {
		h := c.rob.hotAt(i)
		e := c.rob.at(i)
		c.stats.Squashed++
		// Release this entry's claims on its producers' wake counters;
		// every producer (surviving or squashed) is still resident here.
		if h.pendMask != 0 {
			for s := range e.srcs {
				if h.pendMask&(1<<uint(s)) != 0 {
					if pi := c.rob.indexOf(e.srcs[s].producer); pi >= 0 {
						c.rob.hotAt(pi).wakeUses--
					}
				}
			}
		}
		switch h.state {
		case sWaiting:
			c.iqCount--
		case sIssued:
			c.issuedCount--
		}
		if h.op.IsMem() {
			c.lsqCount--
		}
		if h.op == isa.OpAccel {
			if e.accelStarted {
				c.stats.AccelSquashed++
				// Free the TCA unit if this invocation was still
				// running.
				if h.readyCycle > c.now {
					c.tcaBusyUntil = c.now
				}
				if e.storeCount > 0 {
					c.liveStores--
					if e.storeOff < arenaKeep {
						arenaKeep = e.storeOff
					}
				}
			}
			if c.barrierActive && c.barrierSeq == h.seq {
				c.barrierActive = false
			}
		}
	}
	c.accelArena = c.accelArena[:arenaKeep]
	c.rob.truncate(first)

	// Rebuild the rename table from the surviving entries.
	for r := range c.rename {
		c.rename[r].valid = false
	}
	for i := 0; i < c.rob.len(); i++ {
		e := c.rob.at(i)
		if e.in.HasDst() {
			c.rename[e.in.Dst].valid = true
			c.rename[e.in.Dst].seq = c.rob.hotAt(i).seq
		}
	}
	c.seq = c.rob.hotAt(c.rob.len()-1).seq + 1
}

// commit retires completed instructions in order, applying architectural
// state.
func (c *Core) commit() {
	for n := 0; n < c.cfg.CommitWidth && c.rob.len() > 0; n++ {
		h := c.rob.hotAt(0)
		if h.state != sDone || h.readyCycle+int64(c.cfg.CommitDelay) > c.now {
			return
		}
		e := c.rob.at(0)
		switch {
		case h.op == isa.OpHalt:
			c.halted = true
		case h.op.IsStore():
			c.mem.Store(e.addr, e.storeData)
			c.stats.Stores++
			// Charge the write to the shared ports and hierarchy.
			g := c.portGrant(c.now)
			_ = c.hier.Access(g, e.addr, true)
		case h.op == isa.OpAccel:
			isa.ApplyStores(c.mem, c.accelStoresOf(e))
			c.stats.AccelCommitted++
			if c.cfg.RecordAccelEvents {
				c.stats.AccelEvents = append(c.stats.AccelEvents, AccelEvent{
					Seq:      h.seq,
					Dispatch: e.dispatchCycle,
					Start:    e.accelStart,
					Done:     h.readyCycle,
					Commit:   c.now,
				})
			}
			c.stats.AccelDrainWait += e.accelHeld
			if e.storeCount > 0 {
				c.liveStores--
				if c.liveStores == 0 {
					c.accelArena = c.accelArena[:0]
				}
			}
			if e.in.HasDst() {
				c.arf[e.in.Dst] = e.val
			}
		case h.op.IsLoad():
			c.stats.Loads++
			if e.forwarded {
				c.stats.LoadsForwarded++
			}
			c.arf[e.in.Dst] = e.val
		case e.in.HasDst():
			c.arf[e.in.Dst] = e.val
		}
		if h.op.IsCondBranch() {
			c.stats.Branches++
		}
		if e.in.HasDst() && c.rename[e.in.Dst].valid && c.rename[e.in.Dst].seq == h.seq {
			c.rename[e.in.Dst].valid = false
		}
		if c.barrierActive && c.barrierSeq == h.seq {
			c.barrierActive = false
		}
		if h.op.IsMem() {
			c.lsqCount--
		}
		c.recordPipeEvent(h, e)
		c.rob.popHead()
		c.quiet = false
		c.stats.Committed++
		c.lastCommitCycle = c.now
		if c.halted {
			return
		}
	}
}
