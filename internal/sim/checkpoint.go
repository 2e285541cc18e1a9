package sim

import (
	"fmt"

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
// busy time, the device's state, and every Stats counter. (*Core).walkState
// is the one list of that state. Resume (NewFromCheckpoint) rebuilds a
// Core that continues exactly as the original would have — the
// differential suite in checkpoint_test.go asserts byte-identical Stats and
// pipe traces against an uninterrupted run.
//
// Snapshot-legality invariant (see DESIGN.md "Warm-state checkpointing"):
// a Checkpoint may only be taken at a cycle boundary — between Run* calls —
// where the per-cycle scratch (due batch, quiet flag, cycleStall /
// cycleHeldAccel / cycleConfWait trackers, the overlay, device pending-store
// scratch, the pause plumbing itself) is dead by construction; that scratch
// is deliberately absent from the snapshot.

// Checkpoint is a resumable snapshot of a paused Core: a header that a
// resume checks before it builds anything, and the core's state as
// walkState encodes it. A Checkpoint is immutable once taken and a resume
// only reads State, so any number of forks may resume from the same value
// concurrently.
type Checkpoint struct {
	// Config is the canonical configuration the snapshot was taken under.
	// A resume config must match it — or, when SuffixFree is set, match it
	// up to the warmup-irrelevant suffix fields (Config.WarmupCanonical).
	Config Config
	// ProgHash is the program's Fingerprint (code and initial memory
	// image); resuming under a different program is rejected.
	ProgHash uint64
	// Now is the cycle the core paused at. It rides in the header rather
	// than in State, so restoreFrom stays the one restore-time writer of
	// the clock (simlint R6).
	Now int64
	// SuffixFree records that no OpAccel has dispatched yet, i.e. no
	// suffix configuration field (Mode, PartialSpeculation,
	// RecordAccelEvents) has been consulted, which is what licenses
	// cross-mode resume from one warm snapshot.
	SuffixFree bool
	// State is the core's state, walkState's encoding of it. It stays
	// opaque until a resume decodes it into a fresh core, which is when
	// its contents are validated.
	State []byte
}

// Checkpoint captures the core's complete state at the current cycle
// boundary. It fails when the attached device has been invoked but does not
// implement isa.AccelSnapshotter (its state could not be reproduced on
// resume).
func (c *Core) Checkpoint() (*Checkpoint, error) {
	state, err := ckpt.Encode(c.walkState)
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint: %w", err)
	}
	return &Checkpoint{
		Config:     c.cfg.Canonical(),
		ProgHash:   c.prog.Fingerprint(),
		Now:        c.now,
		SuffixFree: !c.accelDispatched,
		State:      state,
	}, nil
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
// device of the snapshot's configuration: its state is restored when the
// snapshot carries it, otherwise the snapshot's device must never have been
// invoked. ck itself is never mutated or aliased, so N forks may resume
// from one value concurrently.
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
	c.now = ck.Now
	c.accelDispatched = !ck.SuffixFree
	if err := ckpt.Decode(ck.State, c.walkState); err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}
	// The issue indexes and dependent chains are derived state: rebuilt,
	// never serialized.
	waiting, err := c.rob.reindex()
	if err != nil {
		return fmt.Errorf("sim: corrupt checkpoint: %w", err)
	}
	if waiting != c.iqCount {
		return fmt.Errorf("sim: corrupt checkpoint: %d waiting ROB entries, IQ count %d", waiting, c.iqCount)
	}
	return nil
}
