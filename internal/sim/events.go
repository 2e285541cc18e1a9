package sim

// Event-horizon fast-forward.
//
// The tick loop in Run executes every stage every cycle, but on many cycles
// the core is provably idle: an NT dispatch barrier waiting out a
// coarse-grained TCA, a full-ROB stall on a DRAM miss, the NL window drain.
// Because the memory hierarchy is already event-based (Access/IFetch take
// absolute request times and return absolute completion times — nothing in
// internal/mem ticks per cycle), a cycle in which no stage acts changes no
// simulator state except the per-cycle counters. Such cycles can be skipped
// wholesale: jump c.now to the earliest future cycle at which any stage
// *could* act and replicate the per-cycle counters for the cycles elided.
//
// The invariant (see DESIGN.md): skipping is legal iff no stage can act
// before the horizon. eventHorizon therefore takes the min over every
// future cycle at which blocked work can unblock:
//
//   - the completion min-heap top: the next sIssued entry whose result
//     arrives (this also covers functional-unit free times — an occupied
//     unit's busyUntil never exceeds its occupier's readyCycle, and the
//     occupier's heap record survives squashes by lazy deletion);
//   - the ROB head's commit eligibility when it is already sDone;
//   - the fetch-redirect / I-miss resume cycle;
//   - the front-end availability of the next undispatched instruction;
//   - the TCA unit's busy-until cycle (it gates tryStartAccel and the
//     per-cycle accelHeld / AccelConfidenceWait counters);
//   - conservatively, the next in-flight cache fill completion (fills only
//     matter through Access calls, which happen on active cycles, but
//     landing on them is harmless and keeps the horizon auditable);
//   - the deadlock-watchdog and cycle-budget boundaries, so ErrDeadlock
//     and ErrCycleLimit fire at bit-identical cycles.
//
// Memory ports are deliberately absent: portGrant queues requests instead
// of rejecting them, so port occupancy never blocks a stage.

// compRecord schedules one pending completion: the entry with sequence
// number seq is expected to leave sIssued at cycle. Records are never
// removed on squash (lazy deletion); complete() validates on pop that the
// resident entry still matches.
type compRecord struct {
	cycle int64
	seq   uint64
}

// compHeap is a binary min-heap of pending completions ordered by cycle.
// Same-cycle pop order is irrelevant: complete() re-sorts each due batch
// by seq to reproduce the tick loop's ROB-position processing order.
type compHeap []compRecord

// pushPend schedules a completion record.
func (c *Core) pushPend(r compRecord) {
	h := append(c.pend, r)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].cycle <= h[i].cycle {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	c.pend = h
}

// popPend removes and returns the earliest record. Callers check len first.
func (c *Core) popPend() compRecord {
	h := c.pend
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].cycle < h[l].cycle {
			m = r
		}
		if h[i].cycle <= h[m].cycle {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	c.pend = h
	return top
}

// sortDueBySeq orders a due batch by sequence number ascending (insertion
// sort: batches are a handful of records). Sequence order equals ROB
// position order among resident entries, which is the order the per-cycle
// scan completed them in — predictor updates and mispredict squash
// selection depend on it.
func sortDueBySeq(due []compRecord) {
	for i := 1; i < len(due); i++ {
		r := due[i]
		j := i - 1
		for j >= 0 && due[j].seq > r.seq {
			due[j+1] = due[j]
			j--
		}
		due[j+1] = r
	}
}

// horizonNever is the "no event" sentinel, far beyond any cycle budget.
const horizonNever = int64(1)<<62 - 1

// eventHorizon returns the earliest future cycle at which any stage could
// act, clamped so the cycle-budget and deadlock checks fire exactly where
// the tick loop would have raised them. Only called on quiet cycles, after
// c.now has advanced past the cycle just executed.
func (c *Core) eventHorizon(maxCycles int64) int64 {
	h := horizonNever
	if len(c.pend) > 0 {
		h = c.pend[0].cycle
	}
	if c.rob.len() > 0 {
		if e := c.rob.hotAt(0); e.state == sDone {
			if t := e.readyCycle + int64(c.cfg.CommitDelay); t < h {
				h = t
			}
		}
	}
	// The >= c.now comparisons below matter: an enabling time equal to the
	// (already advanced) current cycle means the stage can act *this*
	// cycle, so the horizon clamps to c.now and no skip happens. Times
	// strictly below c.now are stale — the stage is blocked by something
	// else whose change is covered by another candidate or by activity
	// detection — and contribute nothing.
	if !c.fetchStopped && c.fetchResumeAt >= c.now && c.fetchResumeAt < h {
		h = c.fetchResumeAt
	}
	if !c.barrierActive && c.fetchHead < len(c.fetchQ) {
		if t := c.fetchQ[c.fetchHead].availAt; t >= c.now && t < h {
			h = t
		}
	}
	if c.tcaBusyUntil >= c.now && c.tcaBusyUntil < h {
		h = c.tcaBusyUntil
	}
	if c.iqCount > 0 {
		// Redundant with the heap records (see file comment) but cheap:
		// a handful of units, and it keeps the legality argument local.
		// Ranging over &c.fu avoids copying the array of slice headers.
		for _, units := range &c.fu {
			for _, free := range units {
				if free >= c.now && free < h {
					h = free
				}
			}
		}
	}
	if t := c.hier.NextFillTime(c.now); t > 0 && t < h {
		h = t
	}
	if w := c.lastCommitCycle + deadlockWindow + 1; w < h {
		h = w
	}
	if maxCycles < h {
		h = maxCycles
	}
	return h
}

// fastForward jumps c.now to the event horizon and replicates the
// per-cycle bookkeeping the elided tick iterations would have performed:
// the ROB occupancy integral, exactly one dispatch-stall counter, and at
// most one of the accel hold counters (an idle cycle increments the same
// set every time, because every condition feeding them is pinned until the
// horizon). This function, the tick loop, and checkpoint restore are the
// only writers of c.now — simlint rule R6 enforces that.
func (c *Core) fastForward(maxCycles, occupancy int64) {
	h := c.eventHorizon(maxCycles)
	if h <= c.now {
		return
	}
	skipped := h - c.now
	c.stats.ROBOccupancySum += occupancy * skipped
	if c.cycleStall != nil {
		*c.cycleStall += skipped
	}
	if c.cycleHeldAccel != nil {
		c.cycleHeldAccel.accelHeld += skipped
	}
	if c.cycleConfWait {
		c.stats.AccelConfidenceWait += skipped
	}
	c.stats.FastForwardedCycles += skipped
	c.stats.FastForwardJumps++
	c.now = h
}
