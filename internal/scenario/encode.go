package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Digest is the SHA-256 content address of a canonical encoding.
type Digest [sha256.Size]byte

// String renders the digest as lowercase hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Short renders the first 12 hex digits, for logs.
func (d Digest) Short() string { return hex.EncodeToString(d[:6]) }

// encoder streams the canonical binary encoding into a hash. Every
// field is written fixed-width little-endian in declared order;
// variable-length data (strings, slices) is length-prefixed so
// adjacent fields cannot alias. Any change to what is written — order,
// width, field set — must bump SchemeVersion.
//
// The primitives fill buf and hand it to the hash a kilobyte at a time,
// so a program hashes at SHA-256 block speed instead of paying one
// interface call per 8-byte field. Buffering changes when bytes reach
// the hash, never which bytes.
type encoder struct {
	h   hash.Hash
	n   int // bytes of buf not yet written to h
	buf [1024]byte
}

func newEncoder(kind string) *encoder {
	e := &encoder{h: sha256.New()}
	e.str("tca-scenario")
	e.u64(SchemeVersion)
	e.str(kind)
	return e
}

func (e *encoder) flush() {
	e.h.Write(e.buf[:e.n])
	e.n = 0
}

func (e *encoder) sum() Digest {
	e.flush()
	var d Digest
	e.h.Sum(d[:0])
	return d
}

func (e *encoder) u64(v uint64) {
	if e.n+8 > len(e.buf) {
		e.flush()
	}
	binary.LittleEndian.PutUint64(e.buf[e.n:], v)
	e.n += 8
}

// raw appends bytes with no length prefix, flushing each time buf fills.
func (e *encoder) raw(s string) {
	for len(s) > 0 {
		if e.n == len(e.buf) {
			e.flush()
		}
		k := copy(e.buf[e.n:], s)
		e.n += k
		s = s[k:]
	}
}

func (e *encoder) i64(v int64) { e.u64(uint64(v)) }

func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) bool(b bool) {
	if b {
		e.u64(1)
	} else {
		e.u64(0)
	}
}

func (e *encoder) str(s string) {
	e.u64(uint64(len(s)))
	e.raw(s)
}

// config writes the simulator configuration's canonical encoding,
// sim.Config.AppendCanonical, appended in place into buf when it fits.
func (e *encoder) config(c sim.Config) {
	b := c.AppendCanonical(e.buf[e.n:e.n])
	if e.n+len(b) <= len(e.buf) {
		e.n += len(b)
		return
	}
	// The encoding outgrew buf and went to a fresh array.
	e.flush()
	e.h.Write(b)
}

// programRef writes the program's own content address in place of its
// full encoding. A built program keeps that sub-digest in its memo, so
// sweeps that digest one multi-megabyte program once per variant hash
// it once; a hand-built literal is hashed on every call. Memoization
// changes digest cost, never digest value.
func (e *encoder) programRef(p *isa.Program) {
	e.digest(p.MemoDigest(programDigest))
}

// programDigest is the SHA-256 of the program's canonical encoding,
// salted like every digest by SchemeVersion.
func programDigest(p *isa.Program) [32]byte {
	sub := newEncoder("program")
	sub.program(p)
	return sub.sum()
}

// digest writes a nested content address, length-prefixed like every
// other variable-width field.
func (e *encoder) digest(d Digest) {
	e.u64(uint64(len(d)))
	e.raw(string(d[:]))
}

// program writes the instruction stream and initial memory image.
// Labels are diagnostics only and excluded.
func (e *encoder) program(p *isa.Program) {
	e.u64(uint64(len(p.Code)))
	for _, in := range p.Code {
		e.u64(uint64(in.Op))
		e.u64(uint64(in.Dst))
		e.u64(uint64(in.Src1))
		e.u64(uint64(in.Src2))
		e.u64(uint64(in.Src3))
		e.i64(in.Imm)
	}
	e.u64(uint64(len(p.Init)))
	for _, mi := range p.Init {
		e.u64(mi.Addr)
		e.u64(mi.Data)
	}
}

// Digest returns the spec's content address. It panics on a device
// without a DeviceKey, which Validate rejects: such a spec has no
// identity, and hashing it anyway could share results across devices.
func (sp Spec) Digest() Digest {
	if sp.NewDevice != nil && sp.DeviceKey == "" {
		panic("scenario: Digest on a spec whose device has no DeviceKey")
	}
	e := newEncoder("run")
	e.config(sp.Config)
	e.programRef(sp.Program)
	e.bool(sp.NewDevice != nil)
	e.str(sp.DeviceKey)
	e.i64(sp.MaxCycles)
	return e.sum()
}

// Digest returns the measure spec's content address. Like Spec.Digest
// it panics on a device without a DeviceKey.
func (ms MeasureSpec) Digest() Digest {
	w := ms.Workload
	if w.NewDevice != nil && w.DeviceKey == "" {
		panic("scenario: Digest on a measure spec whose device has no DeviceKey")
	}
	e := newEncoder("measure")
	e.config(ms.Config)
	e.programRef(w.Baseline)
	e.programRef(w.Accelerated)
	e.u64(w.Acceleratable)
	e.u64(w.Invocations)
	e.u64(w.BaselineInstructions)
	e.f64(w.AccelLatency)
	e.bool(w.NewDevice != nil)
	e.str(w.DeviceKey)
	e.i64(ms.MaxCycles)
	return e.sum()
}

// Describe writes the human-readable canonical form — every field that
// participates in the digest, in encoding order — followed by the
// digest itself, so it panics where Digest does. cmd/tcasim's
// -dump-scenario flag prints this.
func (sp Spec) Describe(w io.Writer) {
	c := sp.Config.Canonical()
	fmt.Fprintf(w, "scheme:      tca-scenario v%d\n", SchemeVersion)
	fmt.Fprintf(w, "widths:      fetch=%d dispatch=%d issue=%d commit=%d\n",
		c.FetchWidth, c.DispatchWidth, c.IssueWidth, c.CommitWidth)
	fmt.Fprintf(w, "windows:     rob=%d iq=%d lsq=%d frontend=%d commit-delay=%d\n",
		c.ROBSize, c.IQSize, c.LSQSize, c.FrontEndDepth, c.CommitDelay)
	fmt.Fprintf(w, "units:       alu=%d mul=%d fpu=%d memports=%d\n",
		c.IntALUs, c.IntMuls, c.FPUs, c.MemPorts)
	fmt.Fprintf(w, "latencies:   imul=%d idiv=%d fadd=%d fmul=%d fma=%d fdiv=%d\n",
		c.IntMulLatency, c.IntDivLatency, c.FPAddLatency, c.FPMulLatency,
		c.FMALatency, c.FPDivLatency)
	fmt.Fprintf(w, "mode:        %s (partial-spec=%v conservative-loads=%v)\n",
		c.Mode, c.PartialSpeculation, c.ConservativeLoadOrdering)
	fmt.Fprintf(w, "predictor:   %s table=%d hist=%d\n",
		c.Predictor.Kind, c.Predictor.TableBits, c.Predictor.HistBits)
	cc := func(name string, cfg mem.CacheConfig) {
		fmt.Fprintf(w, "%-12s %dB %d-way %dB-line hit=%d mshrs=%d prefetch=%v\n",
			name+":", cfg.SizeBytes, cfg.Ways, cfg.LineBytes, cfg.HitLatency,
			cfg.MSHRs, cfg.NextLinePrefetch)
	}
	cc("l1i", c.Memory.L1I)
	cc("l1d", c.Memory.L1D)
	cc("l2", c.Memory.L2)
	fmt.Fprintf(w, "dram:        latency=%d cycles/line=%d\n",
		c.Memory.DRAM.Latency, c.Memory.DRAM.CyclesPerLine)
	fmt.Fprintf(w, "dtlb:        entries=%d pagebits=%d walk=%d\n",
		c.Memory.DTLB.Entries, c.Memory.DTLB.PageBits, c.Memory.DTLB.WalkLatency)
	fmt.Fprintf(w, "itlb:        entries=%d pagebits=%d walk=%d\n",
		c.Memory.ITLB.Entries, c.Memory.ITLB.PageBits, c.Memory.ITLB.WalkLatency)
	fmt.Fprintf(w, "observe:     accel-events=%v pipetrace=%d\n",
		c.RecordAccelEvents, c.PipeTraceLimit)
	fmt.Fprintf(w, "program:     %d instructions, %d init words\n",
		len(sp.Program.Code), len(sp.Program.Init))
	if sp.NewDevice == nil {
		fmt.Fprintf(w, "device:      none\n")
	} else {
		fmt.Fprintf(w, "device:      %s\n", sp.DeviceKey)
	}
	fmt.Fprintf(w, "max-cycles:  %d\n", sp.MaxCycles)
	fmt.Fprintf(w, "digest:      %s\n", sp.Digest())
}
