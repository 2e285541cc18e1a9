// Fixture for R6 core-now-write. Loaded under internal/sim/... where the
// rule applies; the same file posed under another tree must report
// nothing. The local Core mirrors the simulator's: a `now` clock plus the
// three sanctioned writer methods.
package fixture7

// Core stands in for the simulator core; only the field names matter.
type Core struct {
	now   int64
	stats struct{ Cycles int64 }
}

// runLoop is a sanctioned clock writer: the tick loop increment.
func (c *Core) runLoop(maxCycles int64) {
	for c.now < maxCycles {
		c.step()
		c.now++
	}
}

// fastForward is the other sanctioned writer: the event-horizon jump.
func (c *Core) fastForward(h int64) {
	if h > c.now {
		c.now = h
	}
}

// restoreFrom is the third sanctioned writer: checkpoint restore sets the
// clock once while the pipeline is empty.
func (c *Core) restoreFrom(at int64) {
	c.now = at
}

// Run drives runLoop and is no longer sanctioned itself.
func (c *Core) Run(maxCycles int64) {
	c.runLoop(maxCycles)
	c.now = maxCycles // want:R6
}

// step only reads the clock, which any stage may do.
func (c *Core) step() {
	c.stats.Cycles = c.now
}

// rewind is not sanctioned, whatever the spelling of the write.
func (c *Core) rewind() {
	c.now = 0         // want:R6
	c.now--           // want:R6
	c.now += 2        // want:R6
	c.now, _ = 3, "x" // want:R6
}

// helper catches writes through a local variable, not just receivers.
func helper(c *Core) {
	c.now++ // want:R6
}

// setClock moves whatever clock it is handed.
func setClock(p *int64) { *p = 0 }

// escape hands the clock's address to a function that writes it.
func escape(c *Core) {
	setClock(&c.now) // want:R6
}

// notTheCore has a now field too, but is not a Core: no reports.
type notTheCore struct{ now int64 }

func (n *notTheCore) bump() {
	n.now++
}

// suppressed documents a deliberate exception.
func suppressed(c *Core) {
	//lint:ignore R6 fixture: demonstrates a justified exception
	c.now = 7
}
