package isa

// This file defines the contract between OpAccel instructions and the
// tightly-coupled accelerator device that services them. Both the functional
// interpreter and the cycle simulator call the same device, so functional
// behaviour is defined once; the simulator additionally charges the timing
// reported in AccelResult — either a scalar compute latency plus memory
// traffic, or a multi-phase device-engine schedule (AccelPhase) — with every
// memory operation routed through the core's LSQ and cache hierarchy,
// arbitrated by age as in the paper's methodology.

import "repro/internal/ckpt"

// AccelMemOp is one memory word access performed by an accelerator
// invocation. Size is in bytes (at most 64, the paper's assumed maximum
// contiguous request width, same as an AVX-512 register); accesses wider
// than 8 bytes describe contiguous words starting at Addr.
//
// Serial marks an access whose address depends on the previous access's
// data (pointer chasing, DFA table walks): the simulator starts it only
// after the preceding operation in the list completes, instead of
// overlapping it.
type AccelMemOp struct {
	Addr   uint64
	Size   int
	Store  bool
	Serial bool
}

// AccelPhase is one step of a device engine's occupancy schedule. The
// simulator executes a schedule's phases strictly in order; within one phase
// it issues the phase's loads at the phase start (each one arbitrated
// through the shared memory ports, Serial loads chaining behind their
// predecessor), charges Compute cycles, then issues the phase's stores, and
// the next phase begins when everything in this one has finished.
//
// Overlap decouples the phase's memory time from its compute time: the
// phase ends at max(loads done, start + Compute) instead of
// loadsDone + Compute. This is how a decoupled access/execute device
// expresses its access slice running ahead of the execute slice — the
// loads of chunk i+1 stream under the compute of chunk i, so a phase costs
// whichever slice is slower, never the sum. Stores still wait for both
// (they carry results the execute slice produced from the loaded data).
type AccelPhase struct {
	// Compute is the phase's pure compute occupancy in cycles.
	Compute int
	// Overlap, when set, lets the phase's memory time hide under Compute
	// (and vice versa) instead of serializing after it.
	Overlap bool
	// MemOps is the phase's memory traffic, issued through the same
	// port/MSHR arbitration as scalar-contract traffic.
	MemOps []AccelMemOp
}

// AccelResult describes one accelerator invocation: the value written to the
// destination register, and its timing under one of two contracts.
//
// Scalar contract (the paper's monolithic TCA): Latency is the pure compute
// time in cycles and MemOps the memory traffic; the simulator issues all
// loads at invocation start, charges Latency, then issues the stores. A
// scalar result is exactly equivalent to the one-phase schedule
// {{Compute: Latency, MemOps: MemOps}} — the simulator executes both
// through the same engine path, bit-identically (pinned by the engine
// differential suite in internal/sim).
//
// Engine contract: Schedule, when non-nil, is a deterministic multi-phase
// occupancy schedule and takes precedence; Latency and MemOps are then
// ignored by the simulator. Schedules let a device express structure a
// scalar latency cannot: decoupled access/execute streaming (loads of the
// next chunk hidden under compute of the current one), one-time
// configuration cost amortized over a loop nest, staged writeback.
//
// Under either contract the device performs its stores via AccelStorer, not
// on the memory passed to Invoke; MemOps entries are the timing-visible
// trace of the accesses. Functional callers may ignore timing entirely.
type AccelResult struct {
	Value    uint64
	Latency  int
	MemOps   []AccelMemOp
	Schedule []AccelPhase
}

// AccelCall carries the operand values of an OpAccel instruction to the
// device. Kind is the instruction's immediate; Args are the values of
// Src1..Src3 at invocation time.
type AccelCall struct {
	Kind int64
	Args [3]uint64
}

// WordReader is the memory view an accelerator reads during an invocation.
// The interpreter passes the architectural Memory; the simulator passes an
// overlay that includes older, not-yet-committed stores so speculative
// invocations observe program-order memory state.
type WordReader interface {
	Load(addr uint64) uint64
	LoadFloat(addr uint64) float64
}

// AccelDevice is a tightly-coupled accelerator. Invoke must be
// deterministic for a given (call, memory) pair: the simulator may only
// invoke it once per committed instruction, but the invocation can happen
// speculatively in L modes, so devices must not keep externally visible
// state beyond what they write through mem (the simulator defers those
// writes until the invocation is non-speculative in the functional image).
//
// Implementations live in internal/accel.
type AccelDevice interface {
	// Name identifies the device in statistics and error messages.
	Name() string
	// Invoke performs the accelerator operation functionally against mem
	// and reports its timing. Loads read mem directly; stores must NOT be
	// applied by the device — they are described in AccelResult.MemOps
	// and returned through AccelStorer so the caller can apply them with
	// correct speculation semantics.
	Invoke(call AccelCall, mem WordReader) AccelResult
}

// AccelMemoryUser is implemented by devices whose invocations read or write
// program memory. The simulator orders such invocations against the
// load/store queue; devices that work purely on register operands (the heap
// manager's hardware tables, fixed-latency compute blocks) skip that
// ordering.
type AccelMemoryUser interface {
	UsesProgramMemory() bool
}

// AccelJournal is implemented by devices with internal state (such as the
// heap manager's free-list tables) that may be invoked speculatively in the
// L modes. Mark snapshots a position; Rewind undoes every state change made
// by invocations after that mark, implementing the misspeculation-rollback
// hardware the paper's L modes require.
type AccelJournal interface {
	Mark() int
	Rewind(mark int)
}

// AccelSnapshotter is implemented by devices whose state must survive a
// simulator checkpoint/resume cycle. WalkState walks the device's mutable
// state (counters, tables, journals) through the checkpoint codec: it
// encodes the state at the end of the checkpoint's state frame, or
// decodes it into a freshly built device of the same configuration. A device
// without mutable state need not implement the interface — the checkpoint
// layer then requires the device to be pristine (never invoked) at
// snapshot time.
type AccelSnapshotter interface {
	WalkState(k *ckpt.Codec)
}

// AccelStore is a pending accelerator store: a word address and the data to
// write. Devices that need to write memory return these via the
// AccelStorer interface.
type AccelStore struct {
	Addr uint64
	Data uint64
}

// AccelStorer is implemented by devices whose invocations write memory.
// PendingStores returns the word-granularity stores of the most recent
// Invoke call. The interpreter applies them immediately; the simulator
// applies them when the OpAccel instruction commits.
type AccelStorer interface {
	PendingStores() []AccelStore
}

// InvokeAndCollect runs one accelerator invocation and returns the result
// together with any pending stores, without applying them.
func InvokeAndCollect(dev AccelDevice, call AccelCall, mem WordReader) (AccelResult, []AccelStore) {
	res := dev.Invoke(call, mem)
	if s, ok := dev.(AccelStorer); ok {
		return res, s.PendingStores()
	}
	return res, nil
}

// ApplyStores writes a batch of accelerator stores to memory.
func ApplyStores(mem *Memory, stores []AccelStore) {
	for _, s := range stores {
		mem.Store(s.Addr, s.Data)
	}
}
