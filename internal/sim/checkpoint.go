package sim

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/ckpt"
	"repro/internal/isa"
)

// Warm-state checkpointing.
//
// A Checkpoint is a deterministic deep snapshot of a paused Core — complete
// architectural state (registers, memory, program position) plus the
// microarchitectural state a bit-identical resume needs: the ROB slabs,
// rename table, fetch queue, completion heap, functional-unit and port
// reservations, cache/TLB/DRAM/predictor state, the TCA store arena and
// busy time, and every Stats counter. Resume (NewFromCheckpoint) rebuilds a
// Core that continues exactly as the original would have — the differential
// suite in checkpoint_test.go asserts byte-identical Stats and pipe traces
// against an uninterrupted run.
//
// Snapshot-legality invariant (see DESIGN.md "Warm-state checkpointing"):
// a Checkpoint may only be taken at a cycle boundary — between Run* calls —
// where the per-cycle scratch (due batch, quiet flag, cycleStall /
// cycleHeldAccel / cycleConfWait trackers, device pending-store scratch,
// the pause plumbing itself) is dead by construction; that scratch is
// deliberately absent from the snapshot.

// RenameEntry is one architectural register's rename-table slot.
type RenameEntry struct {
	Valid bool
	Seq   uint64
}

// Checkpoint is a resumable snapshot of a paused Core. All slice fields are
// deep copies: a Checkpoint is immutable once taken, so any number of forks
// may resume from the same value concurrently.
type Checkpoint struct {
	// Config is the canonical configuration the snapshot was taken under.
	// A resume config must match it — or, when SuffixFree is set, match it
	// up to the warmup-irrelevant suffix fields (Config.WarmupCanonical).
	Config Config
	// ProgHash is the program's Fingerprint (code and initial memory
	// image); resuming under a different program is rejected.
	ProgHash uint64

	Now             int64
	Seq             uint64
	Halted          bool
	LastCommitCycle int64
	// SawAccelFetch records whether an OpAccel has entered fetch (the
	// RunToAccelFetch pause boundary); SuffixFree records that no OpAccel
	// has dispatched yet, i.e. no suffix configuration field (Mode,
	// PartialSpeculation, RecordAccelEvents) has been consulted, which is
	// what licenses cross-mode resume from one warm snapshot.
	SawAccelFetch bool
	SuffixFree    bool

	ARF    [isa.NumRegs]uint64
	Rename [isa.NumRegs]RenameEntry

	// ROBHot/ROBCold are the in-flight window, rebased oldest-first.
	ROBHot  []robHot
	ROBCold []robEntry

	// Arena backs the ROB entries' pending-store spans; LiveStores counts
	// resident invocations holding spans.
	Arena      []isa.AccelStore
	LiveStores int

	IQCount     int
	LSQCount    int
	IssuedCount int

	// FetchQ is the front-end queue, rebased to drop the consumed prefix.
	FetchQ        []fetchedInst
	FetchPC       int
	FetchResumeAt int64
	FetchStopped  bool
	CurFetchLine  int64

	BarrierSeq    uint64
	BarrierActive bool

	FreeUnits [numFUClasses][]int64
	Ports     []int64

	TCABusyUntil int64

	// Pend is the completion min-heap's backing array verbatim (the heap
	// layout is deterministic, so copying it preserves pop order).
	Pend []compRecord

	Stats Stats

	// Mem, Hier and Pred are the frames the memory image, the memory
	// hierarchy and the branch predictor write with their own walks
	// (isa.Memory.WalkState, mem.Hierarchy.WalkState, bpred.WalkState).
	// They stay opaque until a resume decodes them into the fresh core's
	// components, which is when their contents are validated.
	Mem  []byte
	Hier []byte
	Pred []byte

	// DeviceState is the attached device's frame, which its
	// isa.AccelSnapshotter walk writes (nil when no device is attached);
	// DevicePristine records that the device was never invoked, so a
	// resume may substitute any freshly-constructed device of the same
	// configuration.
	DeviceState    []byte
	DevicePristine bool
}

// Checkpoint captures the core's complete state at the current cycle
// boundary. It fails when the attached device has been invoked but does not
// implement isa.AccelSnapshotter (its state could not be reproduced on
// resume).
func (c *Core) Checkpoint() (*Checkpoint, error) {
	ck := &Checkpoint{
		Config:          c.cfg.Canonical(),
		ProgHash:        c.prog.Fingerprint(),
		Now:             c.now,
		Seq:             c.seq,
		Halted:          c.halted,
		LastCommitCycle: c.lastCommitCycle,
		SawAccelFetch:   c.sawAccelFetch,
		SuffixFree:      !c.accelDispatched,
		ARF:             c.arf,
		Arena:           append([]isa.AccelStore(nil), c.accelArena...),
		LiveStores:      c.liveStores,
		IQCount:         c.iqCount,
		LSQCount:        c.lsqCount,
		IssuedCount:     c.issuedCount,
		FetchQ:          append([]fetchedInst(nil), c.fetchQ[c.fetchHead:]...),
		FetchPC:         c.fetchPC,
		FetchResumeAt:   c.fetchResumeAt,
		FetchStopped:    c.fetchStopped,
		CurFetchLine:    c.curFetchLine,
		BarrierSeq:      c.barrierSeq,
		BarrierActive:   c.barrierActive,
		Ports:           append([]int64(nil), c.ports...),
		TCABusyUntil:    c.tcaBusyUntil,
		Pend:            append([]compRecord(nil), c.pend...),
		Stats:           c.stats.Clone(),
		DevicePristine:  !c.accelEverInvoked,
	}
	for r := range c.rename {
		ck.Rename[r] = RenameEntry{Valid: c.rename[r].valid, Seq: c.rename[r].seq}
	}
	n := c.rob.len()
	ck.ROBHot = make([]robHot, n)
	ck.ROBCold = make([]robEntry, n)
	for i := 0; i < n; i++ {
		ck.ROBHot[i] = *c.rob.hotAt(i)
		ck.ROBCold[i] = *c.rob.at(i)
	}
	for cl := range c.fu {
		ck.FreeUnits[cl] = append([]int64(nil), c.fu[cl]...)
	}
	var err error
	frame := func(walk func(*ckpt.Codec)) []byte {
		b, ferr := ckpt.Encode(walk)
		if err == nil {
			err = ferr
		}
		return b
	}
	ck.Mem = frame(c.mem.WalkState)
	ck.Hier = frame(c.hier.WalkState)
	ck.Pred = frame(func(k *ckpt.Codec) { bpred.WalkState(k, c.pred) })
	if c.dev != nil {
		snap, ok := c.dev.(isa.AccelSnapshotter)
		if !ok {
			if c.accelEverInvoked {
				return nil, fmt.Errorf("sim: checkpoint: device %q has been invoked but does not implement isa.AccelSnapshotter", c.dev.Name())
			}
		} else {
			ck.DeviceState = frame(snap.WalkState)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint: %w", err)
	}
	return ck, nil
}

// compatibleWith reports whether a resume under cfg may use this snapshot:
// either the canonical configs match exactly, or the snapshot predates any
// accel dispatch (SuffixFree) and the configs agree on everything but the
// warmup-irrelevant suffix fields.
func (ck *Checkpoint) compatibleWith(cfg Config) bool {
	want := cfg.Canonical()
	if want == ck.Config {
		return true
	}
	return ck.SuffixFree && want.WarmupCanonical() == ck.Config.WarmupCanonical()
}

// NewFromCheckpoint builds a Core resuming from ck under cfg. The config
// must be checkpoint-compatible (see Checkpoint.Config), the program must
// hash-match the one the snapshot was taken from, and dev must be a fresh
// device of the snapshot's configuration: its state frame is restored when
// the snapshot carries one, otherwise the snapshot must be device-pristine.
// ck itself is never mutated or aliased, so N forks may resume from one
// value concurrently.
func NewFromCheckpoint(cfg Config, prog *isa.Program, dev isa.AccelDevice, ck *Checkpoint) (*Core, error) {
	if !ck.compatibleWith(cfg) {
		return nil, fmt.Errorf("sim: resume config incompatible with checkpoint (taken under %q-canonical form; post-warmup fields may differ only for suffix-free snapshots)", ck.Config.Name)
	}
	if h := prog.Fingerprint(); h != ck.ProgHash {
		return nil, fmt.Errorf("sim: resume program hash %#x does not match checkpoint %#x", h, ck.ProgHash)
	}
	c, err := New(cfg, prog, dev)
	if err != nil {
		return nil, err
	}
	if err := c.restoreFrom(ck); err != nil {
		return nil, err
	}
	return c, nil
}

// restoreFrom fills a freshly-built Core from a snapshot. It is one of the
// three sanctioned Core.now writers (simlint R6): the clock moves exactly
// once, before any stage runs.
func (c *Core) restoreFrom(ck *Checkpoint) error {
	if len(ck.ROBHot) != len(ck.ROBCold) {
		return fmt.Errorf("sim: corrupt checkpoint: %d hot vs %d cold ROB entries", len(ck.ROBHot), len(ck.ROBCold))
	}
	if len(ck.ROBHot) > c.rob.limit {
		return fmt.Errorf("sim: checkpoint holds %d ROB entries, config allows %d", len(ck.ROBHot), c.rob.limit)
	}
	if len(ck.Ports) != len(c.ports) {
		return fmt.Errorf("sim: checkpoint has %d memory ports, config has %d", len(ck.Ports), len(c.ports))
	}
	for cl := range c.fu {
		if len(ck.FreeUnits[cl]) != len(c.fu[cl]) {
			return fmt.Errorf("sim: checkpoint functional-unit class %d count mismatch", cl)
		}
	}
	c.now = ck.Now
	c.seq = ck.Seq
	c.halted = ck.Halted
	c.lastCommitCycle = ck.LastCommitCycle
	c.sawAccelFetch = ck.SawAccelFetch
	c.accelDispatched = !ck.SuffixFree
	c.arf = ck.ARF
	for r := range c.rename {
		c.rename[r].valid = ck.Rename[r].Valid
		c.rename[r].seq = ck.Rename[r].Seq
	}
	c.rob.head = 0
	c.rob.count = len(ck.ROBHot)
	copy(c.rob.hot, ck.ROBHot)
	copy(c.rob.cold, ck.ROBCold)
	// The issue indexes are derived state: rebuilt, never serialized.
	if waiting := c.rob.reindex(); waiting != ck.IQCount {
		return fmt.Errorf("sim: corrupt checkpoint: %d waiting ROB entries, IQ count %d", waiting, ck.IQCount)
	}
	c.accelArena = append(c.accelArena[:0], ck.Arena...)
	c.liveStores = ck.LiveStores
	c.iqCount = ck.IQCount
	c.lsqCount = ck.LSQCount
	c.issuedCount = ck.IssuedCount
	c.fetchQ = append(c.fetchQ[:0], ck.FetchQ...)
	c.fetchHead = 0
	c.fetchPC = ck.FetchPC
	c.fetchResumeAt = ck.FetchResumeAt
	c.fetchStopped = ck.FetchStopped
	c.curFetchLine = ck.CurFetchLine
	c.barrierSeq = ck.BarrierSeq
	c.barrierActive = ck.BarrierActive
	for cl := range c.fu {
		copy(c.fu[cl], ck.FreeUnits[cl])
	}
	copy(c.ports, ck.Ports)
	c.tcaBusyUntil = ck.TCABusyUntil
	c.pend = append(c.pend[:0], ck.Pend...)
	c.stats = ck.Stats.Clone()
	if err := ckpt.Decode(ck.Mem, c.mem.WalkState); err != nil {
		return fmt.Errorf("sim: restore memory: %w", err)
	}
	if err := ckpt.Decode(ck.Hier, c.hier.WalkState); err != nil {
		return fmt.Errorf("sim: restore hierarchy: %w", err)
	}
	if err := ckpt.Decode(ck.Pred, func(k *ckpt.Codec) { bpred.WalkState(k, c.pred) }); err != nil {
		return fmt.Errorf("sim: restore predictor: %w", err)
	}
	c.accelEverInvoked = !ck.DevicePristine
	if ck.DeviceState != nil {
		snap, ok := c.dev.(isa.AccelSnapshotter)
		if !ok {
			return fmt.Errorf("sim: checkpoint carries device state but the attached device cannot restore it")
		}
		if err := ckpt.Decode(ck.DeviceState, snap.WalkState); err != nil {
			return fmt.Errorf("sim: restore device: %w", err)
		}
	} else if !ck.DevicePristine {
		return fmt.Errorf("sim: checkpoint device was invoked but no state frame was captured")
	}
	return nil
}

// Clone returns a deep copy of the statistics (the trace slices are the
// only reference fields).
func (s Stats) Clone() Stats {
	out := s
	out.AccelEvents = append([]AccelEvent(nil), s.AccelEvents...)
	out.PipeTrace = append([]PipeEvent(nil), s.PipeTrace...)
	return out
}
