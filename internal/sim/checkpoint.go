package sim

import (
	"fmt"
	"sync"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/mem"
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
	// ProgHash fingerprints the program (code and initial memory image);
	// resuming under a different program is rejected.
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

	Mem  isa.MemoryState
	Hier mem.HierarchyState
	Pred bpred.State

	// DeviceState is the attached device's snapshot frame (nil when no
	// device is attached); DevicePristine records that the device was
	// never invoked, so a resume may substitute any freshly-constructed
	// device of the same configuration.
	DeviceState    []byte
	DevicePristine bool
}

// progHashes memoizes program fingerprints by pointer. Built programs
// are immutable, so the pointer stands for the content; memoization
// only avoids re-walking a multi-megabyte instruction stream on every
// Checkpoint/NewFromCheckpoint of the same program.
var progHashes sync.Map // *isa.Program -> uint64

// progHashCached returns the memoized fingerprint, computing it on
// first sight of a program.
func progHashCached(p *isa.Program) uint64 {
	if h, ok := progHashes.Load(p); ok {
		return h.(uint64)
	}
	h := progHash(p)
	progHashes.Store(p, h)
	return h
}

// progHash fingerprints a program with FNV-1a over its code and initial
// memory image.
func progHash(p *isa.Program) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(len(p.Code)))
	for _, in := range p.Code {
		mix(uint64(in.Op) | uint64(in.Dst)<<8 | uint64(in.Src1)<<16 | uint64(in.Src2)<<24 | uint64(in.Src3)<<32)
		mix(uint64(in.Imm))
	}
	mix(uint64(len(p.Init)))
	for _, mi := range p.Init {
		mix(mi.Addr)
		mix(mi.Data)
	}
	return h
}

// Checkpoint captures the core's complete state at the current cycle
// boundary. It fails when the attached device has been invoked but does not
// implement isa.AccelSnapshotter (its state could not be reproduced on
// resume).
func (c *Core) Checkpoint() (*Checkpoint, error) {
	ck := &Checkpoint{
		Config:          c.cfg.Canonical(),
		ProgHash:        progHashCached(c.prog),
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
		Mem:             c.mem.Snapshot(),
		Hier:            c.hier.Snapshot(),
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
	ps, err := bpred.Snapshot(c.pred)
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint: %w", err)
	}
	ck.Pred = ps
	if c.dev != nil {
		snap, ok := c.dev.(isa.AccelSnapshotter)
		if !ok {
			if c.accelEverInvoked {
				return nil, fmt.Errorf("sim: checkpoint: device %q has been invoked but does not implement isa.AccelSnapshotter", c.dev.Name())
			}
		} else {
			ck.DeviceState = snap.SnapshotState()
		}
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
	if h := progHashCached(prog); h != ck.ProgHash {
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
	c.mem = isa.RestoreMemory(ck.Mem)
	if err := c.hier.Restore(ck.Hier); err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}
	if err := bpred.Restore(c.pred, ck.Pred); err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}
	c.accelEverInvoked = !ck.DevicePristine
	if ck.DeviceState != nil {
		snap, ok := c.dev.(isa.AccelSnapshotter)
		if !ok {
			return fmt.Errorf("sim: checkpoint carries device state but the attached device cannot restore it")
		}
		if err := snap.RestoreState(ck.DeviceState); err != nil {
			return fmt.Errorf("sim: restore: %w", err)
		}
	} else if !ck.DevicePristine {
		return fmt.Errorf("sim: checkpoint device was invoked but no state frame was captured")
	}
	return nil
}

// Clone returns a deep copy sharing no storage with ck.
func (ck *Checkpoint) Clone() *Checkpoint {
	out := *ck
	out.ROBHot = append([]robHot(nil), ck.ROBHot...)
	out.ROBCold = append([]robEntry(nil), ck.ROBCold...)
	out.Arena = append([]isa.AccelStore(nil), ck.Arena...)
	out.FetchQ = append([]fetchedInst(nil), ck.FetchQ...)
	out.FreeUnits = cloneUnitSlices(ck.FreeUnits)
	out.Ports = append([]int64(nil), ck.Ports...)
	out.Pend = append([]compRecord(nil), ck.Pend...)
	out.Stats = ck.Stats.Clone()
	out.Mem = cloneMemoryState(ck.Mem)
	out.Hier = cloneHierarchyState(ck.Hier)
	out.Pred = clonePredState(ck.Pred)
	out.DeviceState = append([]byte(nil), ck.DeviceState...)
	return &out
}

// Clone returns a deep copy of the statistics (the trace slices are the
// only reference fields).
func (s Stats) Clone() Stats {
	out := s
	out.AccelEvents = append([]AccelEvent(nil), s.AccelEvents...)
	out.PipeTrace = append([]PipeEvent(nil), s.PipeTrace...)
	return out
}

func cloneUnitSlices(fu [numFUClasses][]int64) [numFUClasses][]int64 {
	var out [numFUClasses][]int64
	for cl := range fu {
		out[cl] = append([]int64(nil), fu[cl]...)
	}
	return out
}

func cloneMemoryState(s isa.MemoryState) isa.MemoryState {
	out := s
	out.Pages = append([]isa.PageState(nil), s.Pages...)
	return out
}

func cloneCacheState(s mem.CacheState) mem.CacheState {
	out := s
	out.Lines = append([]mem.CacheLineState(nil), s.Lines...)
	out.Fills = append([]mem.FillState(nil), s.Fills...)
	return out
}

func cloneTLBState(s mem.TLBState) mem.TLBState {
	out := s
	out.Pages = append([]mem.TLBPageState(nil), s.Pages...)
	return out
}

func cloneHierarchyState(s mem.HierarchyState) mem.HierarchyState {
	out := s
	if s.L1I != nil {
		l1i := cloneCacheState(*s.L1I)
		out.L1I = &l1i
	}
	out.L1D = cloneCacheState(s.L1D)
	out.L2 = cloneCacheState(s.L2)
	if s.DTLB != nil {
		d := cloneTLBState(*s.DTLB)
		out.DTLB = &d
	}
	if s.ITLB != nil {
		d := cloneTLBState(*s.ITLB)
		out.ITLB = &d
	}
	return out
}

func clonePredState(s bpred.State) bpred.State {
	out := s
	out.Table = append([]uint8(nil), s.Table...)
	out.Pairs = append([]bpred.PredictorPair(nil), s.Pairs...)
	return out
}
