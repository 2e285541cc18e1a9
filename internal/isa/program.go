package isa

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Program is an executable unit: a code sequence plus an initial memory
// image description. Branch targets are absolute instruction indices
// ("addresses" in units of instructions).
type Program struct {
	Code []Instruction

	// Init is applied to memory before execution starts.
	Init []MemInit

	// Labels maps symbolic names to instruction indices (for diagnostics).
	//lint:exempt-field R8 Program.Labels diagnostics only; execution and identity depend on Code/Init alone
	Labels map[string]int

	// memo is set by Builder.Build and nil on a hand-built literal. A
	// program that carries one passed Validate in Build, and nothing
	// writes through a built program afterwards, so that check and the
	// values memo derives from Code and Init stay true for the
	// program's life, and are collected with it. It is a pointer so
	// that copying a Program value copies no lock.
	memo *programMemo
}

// programMemo holds the values a built program derives from its own
// content, each computed at most once and safe to read from any number
// of goroutines.
type programMemo struct {
	fpOnce sync.Once
	fp     uint64

	digestOnce sync.Once
	digest     [32]byte
}

// MemInit seeds one 8-byte memory word before the program runs.
type MemInit struct {
	Addr uint64
	Data uint64
}

// NewMemoryImage returns a fresh Memory with the program's initial image
// applied. Access counters are reset afterwards so they reflect execution
// only.
func (p *Program) NewMemoryImage() *Memory {
	m := NewMemory()
	for _, mi := range p.Init {
		m.Store(mi.Addr, mi.Data)
	}
	m.Reads, m.Writes = 0, 0
	return m
}

// Fingerprint returns an FNV-1a hash of the program's code and initial
// memory image. Checkpoints record it to refuse a resume under another
// program, and checkpoint blobs on disk carry it, so the bytes it mixes
// are fixed. A built program computes it once; a literal on every call,
// so editing a literal's Code changes what it returns.
func (p *Program) Fingerprint() uint64 {
	if p.memo == nil {
		return p.fingerprint()
	}
	p.memo.fpOnce.Do(func() { p.memo.fp = p.fingerprint() })
	return p.memo.fp
}

func (p *Program) fingerprint() uint64 {
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

// MemoDigest returns sum(p). A built program calls sum once and keeps
// the result; a literal calls it on every call. A program has one such
// slot, so every caller must pass the same sum: the scenario layer's
// program sub-digest owns it.
func (p *Program) MemoDigest(sum func(*Program) [32]byte) [32]byte {
	if p.memo == nil {
		return sum(p)
	}
	p.memo.digestOnce.Do(func() { p.memo.digest = sum(p) })
	return p.memo.digest
}

// Validate checks structural invariants: branch targets in range, register
// classes consistent with opcodes, and a reachable halt. It returns the
// first violation found. A program from Builder.Build passed this check
// there and is immutable, so it returns nil at once; a hand-built
// Program literal gets the full walk.
func (p *Program) Validate() error {
	if p.memo != nil {
		return nil
	}
	n := len(p.Code)
	if n == 0 {
		return fmt.Errorf("isa: empty program")
	}
	sawHalt := false
	for i, in := range p.Code {
		if in.Op >= numOps {
			return fmt.Errorf("isa: @%d: invalid opcode %d", i, int(in.Op))
		}
		if in.Op == OpHalt {
			sawHalt = true
		}
		if in.Op.IsBranch() {
			if in.Imm < 0 || in.Imm >= int64(n) {
				return fmt.Errorf("isa: @%d: branch target %d out of range [0,%d)", i, in.Imm, n)
			}
		}
		if err := checkRegClasses(in); err != nil {
			return fmt.Errorf("isa: @%d (%s): %w", i, in, err)
		}
	}
	if !sawHalt {
		return fmt.Errorf("isa: program has no halt instruction")
	}
	return nil
}

func checkRegClasses(in Instruction) error {
	wantFP := func(r Reg, what string) error {
		if !r.IsFP() {
			return fmt.Errorf("%s must be an fp register, got %s", what, r)
		}
		return nil
	}
	wantInt := func(r Reg, what string) error {
		if r.IsFP() {
			return fmt.Errorf("%s must be an integer register, got %s", what, r)
		}
		return nil
	}
	switch in.Op {
	case OpFMovI:
		return wantFP(in.Dst, "dst")
	case OpFAdd, OpFSub, OpFMul, OpFDiv:
		for _, c := range []struct {
			r    Reg
			what string
		}{{in.Dst, "dst"}, {in.Src1, "src1"}, {in.Src2, "src2"}} {
			if err := wantFP(c.r, c.what); err != nil {
				return err
			}
		}
	case OpFMA:
		for _, c := range []struct {
			r    Reg
			what string
		}{{in.Dst, "dst"}, {in.Src1, "src1"}, {in.Src2, "src2"}, {in.Src3, "src3"}} {
			if err := wantFP(c.r, c.what); err != nil {
				return err
			}
		}
	case OpFLoad:
		if err := wantFP(in.Dst, "dst"); err != nil {
			return err
		}
		return wantInt(in.Src1, "base")
	case OpFStore:
		if err := wantFP(in.Src2, "value"); err != nil {
			return err
		}
		return wantInt(in.Src1, "base")
	case OpLoad:
		if err := wantInt(in.Dst, "dst"); err != nil {
			return err
		}
		return wantInt(in.Src1, "base")
	case OpStore:
		if err := wantInt(in.Src2, "value"); err != nil {
			return err
		}
		return wantInt(in.Src1, "base")
	case OpMovI, OpAddI, OpAdd, OpSub, OpMul, OpDiv, OpRem,
		OpAnd, OpOr, OpXor, OpShl, OpShr, OpSlt:
		if err := wantInt(in.Dst, "dst"); err != nil {
			return err
		}
		if err := wantInt(in.Src1, "src1"); err != nil {
			return err
		}
		return wantInt(in.Src2, "src2")
	case OpBeq, OpBne, OpBlt, OpBge:
		if err := wantInt(in.Src1, "src1"); err != nil {
			return err
		}
		return wantInt(in.Src2, "src2")
	}
	return nil
}

// Disassemble renders the whole program, one instruction per line, with
// label annotations.
func (p *Program) Disassemble() string {
	names := make([]string, 0, len(p.Labels))
	for name := range p.Labels {
		names = append(names, name)
	}
	sort.Strings(names)
	byIndex := make(map[int][]string, len(p.Labels))
	for _, name := range names {
		byIndex[p.Labels[name]] = append(byIndex[p.Labels[name]], name)
	}
	var b strings.Builder
	for i, in := range p.Code {
		for _, l := range byIndex[i] {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "  @%-5d %s\n", i, in)
	}
	return b.String()
}

// The Builder emits code into chunks that double from firstChunk up to
// maxChunk instructions. Emitted instructions are never copied while
// the program grows, as they would be each time one flat slice
// outgrew its capacity; Build copies them once, into the exact-size
// Code slice. A small program pays for one small chunk.
const (
	firstChunk = 128
	maxChunk   = 8192
)

// Builder assembles a Program with symbolic labels. Forward references are
// resolved at Build time. The zero value is not usable; call NewBuilder.
type Builder struct {
	// chunks hold the code emitted so far, n instructions in all; every
	// chunk but the last is full.
	chunks [][]Instruction
	n      int
	labels map[string]int
	// fixups[i] names the label the branch at index i targets.
	fixups map[int]string
	init   []MemInit
	errs   []error
}

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder {
	return &Builder{
		labels: make(map[string]int),
		fixups: make(map[int]string),
	}
}

// Len returns the number of instructions emitted so far (the index of the
// next instruction).
func (b *Builder) Len() int { return b.n }

// Label binds name to the next instruction index.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("isa: duplicate label %q", name))
		return
	}
	b.labels[name] = b.n
}

// Emit appends a raw instruction and returns its index.
func (b *Builder) Emit(in Instruction) int {
	last := len(b.chunks) - 1
	if last < 0 || len(b.chunks[last]) == cap(b.chunks[last]) {
		size := firstChunk
		if last >= 0 {
			size = min(2*cap(b.chunks[last]), maxChunk)
		}
		b.chunks = append(b.chunks, make([]Instruction, 0, size))
		last++
	}
	b.chunks[last] = append(b.chunks[last], in)
	b.n++
	return b.n - 1
}

// InitWord seeds the initial memory image with an 8-byte word.
func (b *Builder) InitWord(addr uint64, data uint64) {
	b.init = append(b.init, MemInit{Addr: addr, Data: data})
}

// InitFloat seeds the initial memory image with a float64.
func (b *Builder) InitFloat(addr uint64, v float64) {
	b.InitWord(addr, math.Float64bits(v))
}

// Convenience emitters. Branch emitters take a label name.

func (b *Builder) Nop()  { b.Emit(Instruction{Op: OpNop}) }
func (b *Builder) Halt() { b.Emit(Instruction{Op: OpHalt}) }

func (b *Builder) MovI(dst Reg, imm int64) { b.Emit(Instruction{Op: OpMovI, Dst: dst, Imm: imm}) }
func (b *Builder) AddI(dst, src Reg, imm int64) {
	b.Emit(Instruction{Op: OpAddI, Dst: dst, Src1: src, Imm: imm})
}
func (b *Builder) Add(dst, s1, s2 Reg) { b.emit3(OpAdd, dst, s1, s2) }
func (b *Builder) Sub(dst, s1, s2 Reg) { b.emit3(OpSub, dst, s1, s2) }
func (b *Builder) Mul(dst, s1, s2 Reg) { b.emit3(OpMul, dst, s1, s2) }
func (b *Builder) Div(dst, s1, s2 Reg) { b.emit3(OpDiv, dst, s1, s2) }
func (b *Builder) Rem(dst, s1, s2 Reg) { b.emit3(OpRem, dst, s1, s2) }
func (b *Builder) And(dst, s1, s2 Reg) { b.emit3(OpAnd, dst, s1, s2) }
func (b *Builder) Or(dst, s1, s2 Reg)  { b.emit3(OpOr, dst, s1, s2) }
func (b *Builder) Xor(dst, s1, s2 Reg) { b.emit3(OpXor, dst, s1, s2) }
func (b *Builder) Shl(dst, s1, s2 Reg) { b.emit3(OpShl, dst, s1, s2) }
func (b *Builder) Shr(dst, s1, s2 Reg) { b.emit3(OpShr, dst, s1, s2) }
func (b *Builder) Slt(dst, s1, s2 Reg) { b.emit3(OpSlt, dst, s1, s2) }

func (b *Builder) FMovI(dst Reg, v float64) {
	b.Emit(Instruction{Op: OpFMovI, Dst: dst, Imm: int64(math.Float64bits(v))})
}
func (b *Builder) FAdd(dst, s1, s2 Reg) { b.emit3(OpFAdd, dst, s1, s2) }
func (b *Builder) FSub(dst, s1, s2 Reg) { b.emit3(OpFSub, dst, s1, s2) }
func (b *Builder) FMul(dst, s1, s2 Reg) { b.emit3(OpFMul, dst, s1, s2) }
func (b *Builder) FDiv(dst, s1, s2 Reg) { b.emit3(OpFDiv, dst, s1, s2) }
func (b *Builder) FMA(dst, s1, s2, acc Reg) {
	b.Emit(Instruction{Op: OpFMA, Dst: dst, Src1: s1, Src2: s2, Src3: acc})
}

func (b *Builder) Load(dst, base Reg, off int64) {
	b.Emit(Instruction{Op: OpLoad, Dst: dst, Src1: base, Imm: off})
}
func (b *Builder) Store(val, base Reg, off int64) {
	b.Emit(Instruction{Op: OpStore, Src1: base, Src2: val, Imm: off})
}
func (b *Builder) FLoad(dst, base Reg, off int64) {
	b.Emit(Instruction{Op: OpFLoad, Dst: dst, Src1: base, Imm: off})
}
func (b *Builder) FStore(val, base Reg, off int64) {
	b.Emit(Instruction{Op: OpFStore, Src1: base, Src2: val, Imm: off})
}

func (b *Builder) Beq(s1, s2 Reg, label string) { b.branch(OpBeq, s1, s2, label) }
func (b *Builder) Bne(s1, s2 Reg, label string) { b.branch(OpBne, s1, s2, label) }
func (b *Builder) Blt(s1, s2 Reg, label string) { b.branch(OpBlt, s1, s2, label) }
func (b *Builder) Bge(s1, s2 Reg, label string) { b.branch(OpBge, s1, s2, label) }
func (b *Builder) Jmp(label string) {
	idx := b.Emit(Instruction{Op: OpJmp})
	b.fixups[idx] = label
}

// Accel emits an accelerator invocation.
func (b *Builder) Accel(dst Reg, kind int64, args ...Reg) {
	in := Instruction{Op: OpAccel, Dst: dst, Imm: kind}
	if len(args) > 3 {
		b.errs = append(b.errs, fmt.Errorf("isa: accel takes at most 3 register args, got %d", len(args)))
		args = args[:3]
	}
	regs := []*Reg{&in.Src1, &in.Src2, &in.Src3}
	for i, a := range args {
		*regs[i] = a
	}
	b.Emit(in)
}

func (b *Builder) emit3(op Op, dst, s1, s2 Reg) {
	b.Emit(Instruction{Op: op, Dst: dst, Src1: s1, Src2: s2})
}

func (b *Builder) branch(op Op, s1, s2 Reg, label string) {
	idx := b.Emit(Instruction{Op: op, Src1: s1, Src2: s2})
	b.fixups[idx] = label
}

// Build resolves labels and returns the validated program with its memo,
// so later Validate calls skip the walk.
func (b *Builder) Build() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	code := make([]Instruction, 0, b.n)
	for _, c := range b.chunks {
		code = append(code, c...)
	}
	idxs := make([]int, 0, len(b.fixups))
	for idx := range b.fixups {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		label := b.fixups[idx]
		target, ok := b.labels[label]
		if !ok {
			return nil, fmt.Errorf("isa: undefined label %q at @%d", label, idx)
		}
		code[idx].Imm = int64(target)
	}
	labels := make(map[string]int, len(b.labels))
	for k, v := range b.labels {
		labels[k] = v
	}
	p := &Program{Code: code, Init: append([]MemInit(nil), b.init...), Labels: labels}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.memo = new(programMemo)
	return p, nil
}

// MustBuild is Build that panics on error, for tests and generators whose
// inputs are statically known to be valid.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
