package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/isa"
	"repro/internal/proggen"
	"repro/internal/sim"
)

// goldenProgram is a tiny fixed instruction stream with one init word —
// small enough that the golden digests below are cheap to regenerate,
// rich enough to exercise every encoded program field.
func goldenProgram(t testing.TB) *isa.Program {
	t.Helper()
	b := isa.NewBuilder()
	b.MovI(isa.R(1), 5)
	b.MovI(isa.R(2), 7)
	b.Add(isa.R(3), isa.R(1), isa.R(2))
	b.MovI(isa.R(4), 0x1000)
	b.Load(isa.R(5), isa.R(4), 0)
	b.Add(isa.R(3), isa.R(3), isa.R(5))
	b.InitWord(0x1000, 42)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGoldenDigests pins the canonical encoding for the stock core
// configurations across all four TCA modes. A failure here means the
// encoding changed — field set, order, width, or canonicalization rule.
// That is only acceptable together with a SchemeVersion bump (so stale
// disk blobs miss instead of serving wrong bytes); bump it, then
// regenerate these constants from the failure output.
func TestGoldenDigests(t *testing.T) {
	golden := []struct {
		core string
		mode accel.Mode
		want string
	}{
		{"hp", accel.LT, "50a893eb1c7c21bf48c2261c62823768fef99bbd7a9e77e864bfb5b2b66cf357"},
		{"hp", accel.NLT, "6bea2a10037e29a4022baa4097100af5fcfdea45921f12938b1793d0df1e7786"},
		{"hp", accel.LNT, "d50b7f7ada54fd80fedc5852049576b21269ac59ce338b8a2d32bc969bcd97a0"},
		{"hp", accel.NLNT, "73c408c94121c99a0f501997893cb4acabc2c169ca771a777bac93958b2a981d"},
		{"lp", accel.LT, "edbaa0136519a2e320b4f36b6d9de0b098bacd6a4dab0c65a8801e2fa32c3f14"},
		{"lp", accel.NLT, "b5864a7cbbcd623cffba6dcfcccbf9dca4d9c8c8ba862e76b017b983dec2b173"},
		{"lp", accel.LNT, "1f2bb93c96f9a4d84ea97c1e7e576fa1d2801c6a9937dc9ac62062ebca194dea"},
		{"lp", accel.NLNT, "41deb0297dc76630019d153a314371c0b2a4155e344cd23b8415a5f5118136b3"},
	}
	prog := goldenProgram(t)
	for _, g := range golden {
		cfg := sim.HighPerfConfig()
		if g.core == "lp" {
			cfg = sim.LowPerfConfig()
		}
		cfg.Mode = g.mode
		spec := Spec{Config: cfg, Program: prog, MaxCycles: 100000}
		if got := spec.Digest().String(); got != g.want {
			t.Errorf("%s/%s: digest %s, want %s", g.core, g.mode, got, g.want)
		}
	}
}

// TestDigestIgnoresNeutralFields: fields erased by canonicalization —
// labels for humans, and NoFastForward, which is bit-identical by the
// fast-forward contract — must not move the digest.
func TestDigestIgnoresNeutralFields(t *testing.T) {
	prog := goldenProgram(t)
	base := Spec{Config: sim.HighPerfConfig(), Program: prog, MaxCycles: 100000}
	want := base.Digest()

	mut := base
	mut.Config.Name = "renamed"
	mut.Config.NoFastForward = true
	mut.Config.Memory.L1I.Name = "icache"
	mut.Config.Memory.L1D.Name = "dcache"
	mut.Config.Memory.L2.Name = "llc"
	if got := mut.Digest(); got != want {
		t.Errorf("neutral-field mutation moved the digest: %s != %s", got, want)
	}

	// Implicit predictor defaults and their explicit spellings are the
	// same machine, so they must be the same digest.
	imp := base
	imp.Config.Predictor.Kind = ""
	imp.Config.Predictor.TableBits = 0
	imp.Config.Predictor.HistBits = 0
	exp := base
	exp.Config.Predictor.Kind = "gshare"
	exp.Config.Predictor.TableBits = 12
	exp.Config.Predictor.HistBits = 8
	if imp.Digest() != exp.Digest() {
		t.Error("implicit and explicit predictor defaults digest differently")
	}
}

// TestDigestSensitivity: every semantic field must move the digest.
func TestDigestSensitivity(t *testing.T) {
	prog := goldenProgram(t)
	base := Spec{Config: sim.HighPerfConfig(), Program: prog, MaxCycles: 100000}
	want := base.Digest()

	muts := map[string]func(*Spec){
		"rob-size":        func(s *Spec) { s.Config.ROBSize++ },
		"mode":            func(s *Spec) { s.Config.Mode = accel.NLNT },
		"partial-spec":    func(s *Spec) { s.Config.PartialSpeculation = true },
		"load-ordering":   func(s *Spec) { s.Config.ConservativeLoadOrdering = true },
		"predictor":       func(s *Spec) { s.Config.Predictor.Kind = "bimodal" },
		"l1d-size":        func(s *Spec) { s.Config.Memory.L1D.SizeBytes *= 2 },
		"dram-latency":    func(s *Spec) { s.Config.Memory.DRAM.Latency++ },
		"record-events":   func(s *Spec) { s.Config.RecordAccelEvents = true },
		"pipetrace-limit": func(s *Spec) { s.Config.PipeTraceLimit = 10 },
		"max-cycles":      func(s *Spec) { s.MaxCycles++ },
		"device":          func(s *Spec) { s.NewDevice = func() isa.AccelDevice { return nil }; s.DeviceKey = "k" },
	}
	for name, mutate := range muts {
		s := base
		mutate(&s)
		if s.Digest() == want {
			t.Errorf("%s: mutation did not move the digest", name)
		}
	}

	// Program identity: code and init words both count.
	b := isa.NewBuilder()
	b.Nop()
	b.Halt()
	other, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := base
	s.Program = other
	if s.Digest() == want {
		t.Error("program change did not move the digest")
	}

	// Device keys distinguish otherwise-identical specs.
	a, c := base, base
	a.NewDevice = func() isa.AccelDevice { return nil }
	c.NewDevice = a.NewDevice
	a.DeviceKey, c.DeviceKey = "fixed:lat=1", "fixed:lat=2"
	if a.Digest() == c.Digest() {
		t.Error("device key change did not move the digest")
	}
}

// TestDigestPanicsOnUncacheable: a device without a canonical key has
// no identity, so Validate rejects it, and Digest panics as the backstop
// for a caller that skips validation: hashing it anyway would risk
// cross-device sharing.
func TestDigestPanicsOnUncacheable(t *testing.T) {
	spec := Spec{
		Config:    sim.HighPerfConfig(),
		Program:   goldenProgram(t),
		NewDevice: func() isa.AccelDevice { return nil },
		MaxCycles: 1,
	}
	if spec.Validate() == nil {
		t.Fatal("a device without a key passed Validate")
	}
	defer func() {
		if recover() == nil {
			t.Error("Digest on a keyless device did not panic")
		}
	}()
	spec.Digest()
}

// TestDescribe smoke-checks the -dump-scenario rendering: it must show
// the digest and the canonical (not the spelled) predictor.
func TestDescribe(t *testing.T) {
	spec := Spec{Config: sim.HighPerfConfig(), Program: goldenProgram(t), MaxCycles: 100000}
	var sb strings.Builder
	spec.Describe(&sb)
	out := sb.String()
	if !strings.Contains(out, spec.Digest().String()) {
		t.Errorf("Describe output missing digest:\n%s", out)
	}
	if !strings.Contains(out, "gshare") {
		t.Errorf("Describe output missing canonical predictor:\n%s", out)
	}
}

// refEncoder writes every primitive straight into the hash, one Write
// per field: the unbuffered byte stream the golden digests pin.
type refEncoder struct{ h hash.Hash }

func (r refEncoder) u64(v uint64) { r.h.Write(binary.LittleEndian.AppendUint64(nil, v)) }

func (r refEncoder) str(s string) {
	r.u64(uint64(len(s)))
	io.WriteString(r.h, s)
}

func (r refEncoder) digest(d Digest) {
	r.u64(uint64(len(d)))
	r.h.Write(d[:])
}

func (r refEncoder) program(p *isa.Program) {
	r.u64(uint64(len(p.Code)))
	for _, in := range p.Code {
		for _, v := range []uint64{uint64(in.Op), uint64(in.Dst), uint64(in.Src1),
			uint64(in.Src2), uint64(in.Src3), uint64(in.Imm)} {
			r.u64(v)
		}
	}
	r.u64(uint64(len(p.Init)))
	for _, mi := range p.Init {
		r.u64(mi.Addr)
		r.u64(mi.Data)
	}
}

func (r refEncoder) sum() Digest {
	var d Digest
	r.h.Sum(d[:0])
	return d
}

// TestEncoderMatchesUnbuffered drives the buffered encoder and the
// unbuffered reference with one seeded sequence of u64, str, digest and
// config calls. String lengths, predictor kinds included, run from 0 to
// three buffers, so strings and configs start and end on both sides of a
// flush and u64s land misaligned after them.
func TestEncoderMatchesUnbuffered(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := &encoder{h: sha256.New()}
		ref := refEncoder{sha256.New()}
		for i := 0; i < 200; i++ {
			switch rng.Intn(4) {
			case 0:
				v := rng.Uint64()
				e.u64(v)
				ref.u64(v)
			case 1:
				b := make([]byte, rng.Intn(3*len(e.buf)+1))
				rng.Read(b)
				e.str(string(b))
				ref.str(string(b))
			case 2:
				var d Digest
				rng.Read(d[:])
				e.digest(d)
				ref.digest(d)
			case 3:
				cfg := sim.HighPerfConfig()
				cfg.Predictor.Kind = strings.Repeat("k", rng.Intn(3*len(e.buf)+1))
				e.config(cfg)
				ref.h.Write(cfg.AppendCanonical(nil))
			}
		}
		if got, want := e.sum(), ref.sum(); got != want {
			t.Errorf("seed %d: buffered %s, unbuffered %s", seed, got, want)
		}
	}
}

// TestProgramEncodingMatchesUnbuffered compares the program encoding
// with the unbuffered reference on random programs from a few
// instructions to several buffers long.
func TestProgramEncodingMatchesUnbuffered(t *testing.T) {
	for _, blocks := range []int{0, 1, 3, 12, 60, 400} {
		opt := proggen.DefaultOptions()
		opt.Blocks = blocks
		p := proggen.Generate(int64(blocks)+1, opt)
		e := &encoder{h: sha256.New()}
		ref := refEncoder{sha256.New()}
		e.program(p)
		ref.program(p)
		if got, want := e.sum(), ref.sum(); got != want {
			t.Errorf("%d blocks (%d instructions): buffered %s, unbuffered %s",
				blocks, len(p.Code), got, want)
		}
	}
}
