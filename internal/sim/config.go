// Package sim implements a cycle-level out-of-order core simulator — the
// from-scratch stand-in for gem5 that this reproduction validates the
// analytical model against.
//
// The core models the mechanisms the paper's first-order model abstracts:
// an in-order front end of configurable width and depth, register renaming
// onto ROB tags, an issue queue with operand wakeup, limited functional
// units, a load/store queue with store-to-load forwarding, age-prioritized
// memory ports shared between the core and the TCA, branch misprediction
// squash and refill, and in-order commit.
//
// A tightly-coupled accelerator instruction (isa.OpAccel) occupies one ROB
// entry and is integrated per the paper's four modes (accel.Mode):
//
//   - non-Leading (NL): the TCA may not begin execution until it reaches
//     the ROB head, i.e. every leading instruction has committed (the
//     "window drain");
//   - non-Trailing (NT): dispatch stalls from the cycle after the TCA
//     dispatches until the TCA commits (the "dispatch barrier");
//   - L and T lift those restrictions at the cost of rollback hardware
//     (device journals) and dependency checking (the LSQ overlay).
package sim

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/bpred"
	"repro/internal/ckpt"
	"repro/internal/isa"
	"repro/internal/mem"
)

// PredictorConfig selects the front end's branch predictor.
type PredictorConfig struct {
	// Kind is "gshare", "bimodal", "taken", "not-taken" or "perfect".
	Kind      string
	TableBits int
	HistBits  int
}

// Canonical returns the configuration with Build's implicit defaults made
// explicit (empty Kind means gshare, zero table/history bits select 12/8),
// so two spellings of the same predictor compare and digest identically.
// The mapping is conservative: it never merges configurations that could
// behave differently.
func (p PredictorConfig) Canonical() PredictorConfig {
	if p.Kind == "" {
		p.Kind = "gshare"
	}
	if p.TableBits == 0 {
		p.TableBits = 12
	}
	if p.HistBits == 0 {
		p.HistBits = 8
	}
	return p
}

// Build constructs the predictor, with Canonical's defaults.
func (p PredictorConfig) Build() (bpred.Predictor, error) {
	p = p.Canonical()
	switch p.Kind {
	case "gshare":
		return bpred.NewGShare(p.TableBits, p.HistBits), nil
	case "bimodal":
		return bpred.NewBimodal(p.TableBits), nil
	case "taken":
		return &bpred.Static{Taken: true}, nil
	case "not-taken":
		return &bpred.Static{Taken: false}, nil
	case "perfect":
		return bpred.NewPerfect(), nil
	default:
		return nil, fmt.Errorf("sim: unknown predictor kind %q", p.Kind)
	}
}

// Config describes one core. The zero value is not valid; start from a
// preset (HighPerfConfig, LowPerfConfig, A72Config) or fill every field.
type Config struct {
	Name string

	// Pipeline widths (instructions per cycle).
	FetchWidth    int
	DispatchWidth int
	IssueWidth    int
	CommitWidth   int

	// Structure sizes.
	ROBSize int
	IQSize  int
	LSQSize int

	// FrontEndDepth is the number of cycles between fetching an
	// instruction and its earliest dispatch; it is also the branch
	// misprediction refill penalty.
	FrontEndDepth int

	// CommitDelay is the back-end depth between an instruction
	// completing execution and becoming eligible to commit — the
	// analytical model's t_commit.
	CommitDelay int

	// Functional unit counts.
	IntALUs  int
	IntMuls  int // multiply/divide units (divide is unpipelined)
	FPUs     int // FP add/mul/FMA units (fdiv unpipelined)
	MemPorts int // LSQ/cache ports, shared with the TCA by age priority

	// Operation latencies in cycles.
	IntMulLatency int
	IntDivLatency int
	FPAddLatency  int
	FPMulLatency  int
	FMALatency    int
	FPDivLatency  int

	// Mode is the TCA integration mode.
	Mode accel.Mode

	// PartialSpeculation implements the paper's §VIII future-work design
	// point between the L and NL modes: in an L mode, the TCA may begin
	// speculative execution only when every older unresolved conditional
	// branch was predicted with high confidence (saturated counter). It
	// reduces TCA squashes — and hence rollback work — at the cost of
	// occasional NL-like waits. Ignored in NL modes and when the
	// predictor cannot estimate confidence.
	PartialSpeculation bool

	// ConservativeLoadOrdering makes loads wait until every older store
	// has fully executed (address AND data) before issuing, instead of
	// the default decoupled store-AGU disambiguation (loads go as soon
	// as all older store addresses are known). This is the ablation knob
	// for the LSQ design choice DESIGN.md calls out; it lowers baseline
	// IPC on store-heavy code.
	ConservativeLoadOrdering bool

	Predictor PredictorConfig

	// Memory is the data hierarchy configuration.
	Memory mem.HierarchyConfig

	// NoFastForward disables the event-horizon scheduler: the core ticks
	// every cycle even through provably idle stall regions. Results and
	// statistics are bit-identical either way (the differential tests
	// assert it); the escape hatch exists for auditing the optimization
	// and for timing comparisons. See DESIGN.md "Event-horizon
	// fast-forward".
	NoFastForward bool

	// RecordAccelEvents enables the per-invocation event trace used by
	// interval analysis (costs memory on long runs).
	RecordAccelEvents bool

	// PipeTraceLimit, when positive, records a pipeline diagram for the
	// first N committed instructions (Stats.PipeTrace, rendered with
	// RenderPipeTrace).
	PipeTraceLimit int
}

// Canonical returns a copy of the configuration with every field that
// cannot influence simulation results normalized away, so semantically
// identical configurations compare and digest identically:
//
//   - Name and the cache Names are presentation-only (they appear in error
//     and diagnostic text, never in Stats);
//   - NoFastForward selects a bit-identical execution strategy by contract
//     (enforced by the differential suite in fastforward_test.go);
//   - the predictor's implicit defaults are made explicit (see
//     PredictorConfig.Canonical).
//
// Every other field is semantic and kept verbatim. internal/scenario
// digests the canonical form; see DESIGN.md "Scenario layer".
func (c Config) Canonical() Config {
	c.Name = ""
	c.NoFastForward = false
	c.Predictor = c.Predictor.Canonical()
	c.Memory.L1I.Name = ""
	c.Memory.L1D.Name = ""
	c.Memory.L2.Name = ""
	return c
}

// AppendCanonical appends the binary encoding of the canonical
// configuration to b: every field Canonical keeps, in declaration order,
// as a little-endian 8-byte word (a flag as 0 or 1, the predictor kind
// as its length and then its bytes). The scenario digests hash these
// bytes and checkpoints store them, so any change to them moves every
// digest and the checkpoint version.
func (c Config) AppendCanonical(b []byte) []byte {
	c = c.Canonical()
	k := ckpt.Encoder(b)
	walkConfig(&k, &c)
	return k.Encoded()
}

// WarmupCanonical strips, on top of Canonical, the fields that cannot affect
// simulation before the first OpAccel reaches the pipeline: Mode and
// PartialSpeculation feed only the accel issue path and the NT dispatch
// barrier (armed at OpAccel dispatch), and RecordAccelEvents is consulted
// only at OpAccel commit. Two configs with equal WarmupCanonical therefore
// execute bit-identical warmup prefixes up to the first accel fetch, which
// is what lets one warm checkpoint serve every post-warmup sweep variant.
func (c Config) WarmupCanonical() Config {
	c = c.Canonical()
	c.Mode = 0
	c.PartialSpeculation = false
	c.RecordAccelEvents = false
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	type check struct {
		ok  bool
		msg string
	}
	checks := []check{
		{c.FetchWidth >= 1, "fetch width >= 1"},
		{c.DispatchWidth >= 1, "dispatch width >= 1"},
		{c.IssueWidth >= 1, "issue width >= 1"},
		{c.CommitWidth >= 1, "commit width >= 1"},
		{c.ROBSize >= 2, "rob size >= 2"},
		{c.IQSize >= 1, "iq size >= 1"},
		{c.LSQSize >= 1, "lsq size >= 1"},
		{c.FrontEndDepth >= 1, "front end depth >= 1"},
		{c.CommitDelay >= 0, "commit delay >= 0"},
		{c.IntALUs >= 1, "int alus >= 1"},
		{c.IntMuls >= 1, "int mul units >= 1"},
		{c.FPUs >= 1, "fp units >= 1"},
		{c.MemPorts >= 1, "mem ports >= 1"},
		{c.IntMulLatency >= 1, "int mul latency >= 1"},
		{c.IntDivLatency >= 1, "int div latency >= 1"},
		{c.FPAddLatency >= 1, "fp add latency >= 1"},
		{c.FPMulLatency >= 1, "fp mul latency >= 1"},
		{c.FMALatency >= 1, "fma latency >= 1"},
		{c.FPDivLatency >= 1, "fp div latency >= 1"},
	}
	for _, ch := range checks {
		if !ch.ok {
			return fmt.Errorf("sim: %s: config requires %s", c.Name, ch.msg)
		}
	}
	if c.Memory.L1I.SizeBytes > 0 {
		if err := c.Memory.L1I.Validate(); err != nil {
			return err
		}
	}
	if err := c.Memory.L1D.Validate(); err != nil {
		return err
	}
	if err := c.Memory.L2.Validate(); err != nil {
		return err
	}
	if err := c.Memory.DTLB.Validate(); err != nil {
		return err
	}
	if err := c.Memory.ITLB.Validate(); err != nil {
		return err
	}
	return c.Memory.DRAM.Validate()
}

// HighPerfConfig is the paper's "mid-high performance (HP) OoO core":
// 256-entry ROB, 4-issue (the paper quotes ~1.8 baseline IPC on its
// workloads).
func HighPerfConfig() Config {
	return Config{
		Name:          "hp",
		FetchWidth:    4,
		DispatchWidth: 4,
		IssueWidth:    4,
		CommitWidth:   4,
		ROBSize:       256,
		IQSize:        64,
		LSQSize:       72,
		FrontEndDepth: 8,
		CommitDelay:   3,
		IntALUs:       4,
		IntMuls:       2,
		FPUs:          2,
		MemPorts:      2,
		IntMulLatency: 3,
		IntDivLatency: 12,
		FPAddLatency:  3,
		FPMulLatency:  4,
		FMALatency:    4,
		FPDivLatency:  12,
		Mode:          accel.LT,
		Memory:        presetMemory(),
	}
}

// presetMemory is the default hierarchy with the instruction side
// disabled. The validation microbenchmarks are generated as one-pass
// straight-line code standing in for steady-state loops, so cold
// instruction misses would be a benchmarking artifact, and the analytical
// model subsumes I-side effects in its measured-IPC input anyway. Enable
// cfg.Memory.L1I (mem.DefaultHierarchy has a ready configuration) to model
// the instruction side on loop-structured programs.
func presetMemory() mem.HierarchyConfig {
	m := mem.DefaultHierarchy()
	m.L1I = mem.CacheConfig{}
	return m
}

// LowPerfConfig is the paper's "low performance (LP) OoO core": 64-entry
// ROB, 2-issue (~0.5 baseline IPC).
func LowPerfConfig() Config {
	c := HighPerfConfig()
	c.Name = "lp"
	c.FetchWidth = 2
	c.DispatchWidth = 2
	c.IssueWidth = 2
	c.CommitWidth = 2
	c.ROBSize = 64
	c.IQSize = 16
	c.LSQSize = 24
	c.FrontEndDepth = 5
	c.CommitDelay = 2
	c.IntALUs = 2
	c.IntMuls = 1
	c.FPUs = 1
	c.MemPorts = 1
	return c
}

// A72Config approximates the ARM Cortex-A72 the paper parameterizes Fig. 2
// with: 3-wide dispatch, 128-entry ROB.
func A72Config() Config {
	c := HighPerfConfig()
	c.Name = "a72"
	c.FetchWidth = 3
	c.DispatchWidth = 3
	c.IssueWidth = 3
	c.CommitWidth = 3
	c.ROBSize = 128
	c.IQSize = 48
	c.LSQSize = 48
	c.FrontEndDepth = 7
	c.CommitDelay = 3
	c.IntALUs = 2
	c.MemPorts = 2
	return c
}

// opLatency returns the execution latency of non-memory, non-accel ops.
// It takes a pointer because every simple-op issue calls it, and a value
// receiver would copy the whole Config each time.
func (c *Config) opLatency(op isa.Op) int {
	switch op {
	case isa.OpMul:
		return c.IntMulLatency
	case isa.OpDiv, isa.OpRem:
		return c.IntDivLatency
	case isa.OpFAdd, isa.OpFSub, isa.OpFMovI:
		return c.FPAddLatency
	case isa.OpFMul:
		return c.FPMulLatency
	case isa.OpFMA:
		return c.FMALatency
	case isa.OpFDiv:
		return c.FPDivLatency
	default:
		return 1
	}
}

// fuClass enumerates functional unit classes.
type fuClass uint8

const (
	fuALU fuClass = iota
	fuMul
	fuFP
	fuMem
	numFUClasses
)

// fuFor maps opcodes to functional units. Loads and stores use memory
// ports; branches and simple integer ops use ALUs.
func fuFor(op isa.Op) fuClass {
	switch {
	case op.IsMem():
		return fuMem
	case op == isa.OpMul || op == isa.OpDiv || op == isa.OpRem:
		return fuMul
	case op.IsFP():
		return fuFP
	default:
		return fuALU
	}
}

// unpipelined reports whether the op occupies its unit for its full latency.
func unpipelined(op isa.Op) bool {
	return op == isa.OpDiv || op == isa.OpRem || op == isa.OpFDiv
}
