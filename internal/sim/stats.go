package sim

import (
	"fmt"
	"strings"
)

// StallBreakdown counts cycles in which dispatch made no progress,
// attributed to the oldest blocking cause.
type StallBreakdown struct {
	// Barrier counts cycles stalled on the NT dispatch barrier — the
	// quantity the analytical model's fill penalty estimates.
	Barrier int64
	// ROBFull, IQFull, LSQFull count back-pressure stalls.
	ROBFull int64
	IQFull  int64
	LSQFull int64
	// FrontEnd counts cycles with no fetched instruction available
	// (refill after squash, or fetch stopped at halt).
	FrontEnd int64
}

// Total returns all stall cycles.
func (s StallBreakdown) Total() int64 {
	return s.Barrier + s.ROBFull + s.IQFull + s.LSQFull + s.FrontEnd
}

// AccelEvent records the lifetime of one committed TCA invocation
// (cycles are absolute).
type AccelEvent struct {
	Seq      uint64
	Dispatch int64
	Start    int64 // execution start (after any NL drain wait)
	Done     int64 // all compute and memory micro-ops complete
	Commit   int64
}

// Stats aggregates one simulation run.
type Stats struct {
	Cycles    int64
	Committed uint64
	Fetched   uint64
	Squashed  uint64

	Branches    uint64
	Mispredicts uint64

	Loads          uint64
	Stores         uint64
	LoadsForwarded uint64

	AccelCommitted  uint64
	AccelSquashed   uint64
	AccelBusyCycles int64
	AccelMemOps     uint64
	// AccelDrainWait is total cycles committed accel invocations spent
	// ready-but-held by the NL (execute-at-head) restriction.
	AccelDrainWait int64
	// AccelConfidenceWait counts cycles invocations were held by the
	// partial-speculation confidence gate (Config.PartialSpeculation).
	AccelConfidenceWait int64

	// AccelPhases counts schedule phases executed by engine devices —
	// devices returning an explicit AccelResult.Schedule. Scalar-latency
	// devices run through the same engine as a synthesized single phase
	// but leave this zero, keeping legacy Stats bit-identical.
	AccelPhases uint64
	// AccelOverlapCycles is memory time hidden under compute (or vice
	// versa) by Overlap phases — the cycles a decoupled access/execute
	// device saves over a monolithic TCA with the same traffic. Zero for
	// scalar-latency devices.
	AccelOverlapCycles int64

	DispatchStalls StallBreakdown

	// ROBOccupancySum accumulates per-cycle occupancy for averaging.
	ROBOccupancySum int64

	// FastForwardedCycles counts cycles elided by the event-horizon
	// scheduler (zero under Config.NoFastForward); FastForwardJumps
	// counts the jumps. Every other statistic is independent of them —
	// host-time observability counters, not simulated-machine state.
	FastForwardedCycles int64
	FastForwardJumps    int64

	// AccelEvents is populated when Config.RecordAccelEvents is set.
	//lint:exempt-field R9 Stats.AccelEvents per-invocation trace consumed by interval analysis, too long for String
	AccelEvents []AccelEvent

	// PipeTrace is populated when Config.PipeTraceLimit is set.
	//lint:exempt-field R9 Stats.PipeTrace rendered by RenderPipeTrace, too long for String
	PipeTrace []PipeEvent
}

// Clone returns a deep copy of the statistics (the trace slices are the
// only reference fields).
func (s Stats) Clone() Stats {
	out := s
	out.AccelEvents = append([]AccelEvent(nil), s.AccelEvents...)
	out.PipeTrace = append([]PipeEvent(nil), s.PipeTrace...)
	return out
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// MispredictRate returns mispredicts per conditional branch.
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// AvgROBOccupancy returns the mean number of in-flight instructions.
func (s Stats) AvgROBOccupancy() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.ROBOccupancySum) / float64(s.Cycles)
}

// CPIStack attributes execution cycles Eyerman-style from the front end's
// perspective: each cycle is charged to the cause that ended its dispatch
// (possibly after partial progress), or counted Active when the full width
// dispatched. Shares sum to 1. This is the measured counterpart of the
// model's interval picture (Fig. 3).
type CPIStack struct {
	Cycles     int64
	Dispatched uint64 // committed + squashed instructions

	// Shares of total cycles (0..1).
	Active   float64 // some dispatch happened
	Barrier  float64 // NT dispatch barrier
	ROBFull  float64
	IQFull   float64
	LSQFull  float64
	FrontEnd float64
}

// CPIStack computes the breakdown.
func (s Stats) CPIStack() CPIStack {
	st := CPIStack{Cycles: s.Cycles, Dispatched: s.Committed + s.Squashed}
	if s.Cycles == 0 {
		return st
	}
	f := func(v int64) float64 { return float64(v) / float64(s.Cycles) }
	st.Barrier = f(s.DispatchStalls.Barrier)
	st.ROBFull = f(s.DispatchStalls.ROBFull)
	st.IQFull = f(s.DispatchStalls.IQFull)
	st.LSQFull = f(s.DispatchStalls.LSQFull)
	st.FrontEnd = f(s.DispatchStalls.FrontEnd)
	st.Active = 1 - st.Barrier - st.ROBFull - st.IQFull - st.LSQFull - st.FrontEnd
	return st
}

// String renders the stack as a one-line breakdown.
func (c CPIStack) String() string {
	return fmt.Sprintf("active %.1f%% | barrier %.1f%% | robfull %.1f%% | iqfull %.1f%% | lsqfull %.1f%% | frontend %.1f%%",
		100*c.Active, 100*c.Barrier, 100*c.ROBFull, 100*c.IQFull, 100*c.LSQFull, 100*c.FrontEnd)
}

// String renders a human-readable report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles            %d\n", s.Cycles)
	fmt.Fprintf(&b, "committed         %d (IPC %.3f)\n", s.Committed, s.IPC())
	fmt.Fprintf(&b, "fetched/squashed  %d / %d\n", s.Fetched, s.Squashed)
	fmt.Fprintf(&b, "branches          %d (%.2f%% mispredicted)\n", s.Branches, 100*s.MispredictRate())
	fmt.Fprintf(&b, "loads/stores      %d / %d (%d forwarded)\n", s.Loads, s.Stores, s.LoadsForwarded)
	fmt.Fprintf(&b, "rob occupancy     %.1f avg\n", s.AvgROBOccupancy())
	fmt.Fprintf(&b, "dispatch stalls   barrier=%d robfull=%d iqfull=%d lsqfull=%d frontend=%d\n",
		s.DispatchStalls.Barrier, s.DispatchStalls.ROBFull, s.DispatchStalls.IQFull,
		s.DispatchStalls.LSQFull, s.DispatchStalls.FrontEnd)
	if s.AccelCommitted > 0 || s.AccelSquashed > 0 {
		fmt.Fprintf(&b, "accel             %d committed, %d squashed, %d busy cycles, %d mem ops, %d drain-wait cycles\n",
			s.AccelCommitted, s.AccelSquashed, s.AccelBusyCycles, s.AccelMemOps, s.AccelDrainWait)
	}
	if s.AccelConfidenceWait > 0 {
		fmt.Fprintf(&b, "accel conf-wait   %d cycles held by the partial-speculation confidence gate\n",
			s.AccelConfidenceWait)
	}
	if s.AccelPhases > 0 || s.AccelOverlapCycles > 0 {
		fmt.Fprintf(&b, "accel engine      %d schedule phases, %d overlap cycles hidden\n",
			s.AccelPhases, s.AccelOverlapCycles)
	}
	if s.FastForwardJumps > 0 {
		fmt.Fprintf(&b, "fast-forward      %d cycles skipped in %d jumps\n",
			s.FastForwardedCycles, s.FastForwardJumps)
	}
	return b.String()
}
