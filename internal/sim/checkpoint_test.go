package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/accel"
	"repro/internal/ckpt"
	"repro/internal/isa"
	"repro/internal/proggen"
	"repro/internal/tcmalloc"
	"repro/internal/workload"
)

const ckptBudget = 2_000_000_000

// ckptCase is one program/device/config combination checked for checkpoint
// transparency.
type ckptCase struct {
	name string
	cfg  Config
	prog *isa.Program
	dev  func() isa.AccelDevice // nil for baseline programs
}

func (c ckptCase) newCore(t *testing.T) *Core {
	t.Helper()
	var dev isa.AccelDevice
	if c.dev != nil {
		dev = c.dev()
	}
	core, err := New(c.cfg, c.prog, dev)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	return core
}

// assertSameResult demands the interrupted run be indistinguishable from the
// reference: deeply equal statistics (including the accel-event and pipe
// traces), byte-identical stats under the checkpoint codec, and identical
// final architectural state.
func assertSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Errorf("%s: stats diverge from uninterrupted run:\nuninterrupted:\n%v\n%s:\n%v",
			label, want.Stats, label, got.Stats)
	}
	ew, eg := ckpt.Encoder(nil), ckpt.Encoder(nil)
	walkStats(&ew, &want.Stats)
	walkStats(&eg, &got.Stats)
	if !bytes.Equal(ew.Encoded(), eg.Encoded()) {
		t.Errorf("%s: encoded stats are not byte-identical to the uninterrupted run", label)
	}
	if want.Regs != got.Regs {
		t.Errorf("%s: final register files diverge", label)
	}
	if !want.Mem.Equal(got.Mem) {
		t.Errorf("%s: final memory images diverge", label)
	}
}

// assertCheckpointTransparent is the heart of the differential suite: pause
// at cycle k, snapshot, and demand that (a) serialize/deserialize is a deep
// round trip, (b) the paused core, continued, finishes bit-identically to an
// uninterrupted run (taking a checkpoint perturbs nothing), and (c) a fresh
// core resumed from the decoded snapshot with a fresh device finishes
// bit-identically too.
func assertCheckpointTransparent(t *testing.T, c ckptCase, k int64) {
	t.Helper()
	ref, err := c.newCore(t).Run(ckptBudget)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	core := c.newCore(t)
	paused, err := core.RunTo(ckptBudget, k)
	if err != nil {
		t.Fatalf("RunTo(%d): %v", k, err)
	}
	if !paused {
		// A fast-forward jump may land past halt; the run is already
		// complete and must still match the reference.
		res, err := core.Run(ckptBudget)
		if err != nil {
			t.Fatalf("finish after missed pause: %v", err)
		}
		assertSameResult(t, "ran-past-pause", ref, res)
		return
	}
	ck, err := core.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint at cycle %d: %v", core.Cycle(), err)
	}

	data := ck.MarshalBinary()
	ck2, err := UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatalf("UnmarshalCheckpoint: %v", err)
	}
	if !reflect.DeepEqual(ck, ck2) {
		t.Fatalf("serialize/deserialize round trip is not deeply equal (cycle %d, %d bytes)", ck.Now, len(data))
	}

	cont, err := core.Run(ckptBudget)
	if err != nil {
		t.Fatalf("continue after checkpoint: %v", err)
	}
	assertSameResult(t, "paused-then-continued", ref, cont)

	var dev isa.AccelDevice
	if c.dev != nil {
		dev = c.dev()
	}
	rcore, err := NewFromCheckpoint(c.cfg, c.prog, dev, ck2)
	if err != nil {
		t.Fatalf("NewFromCheckpoint: %v", err)
	}
	rres, err := rcore.Run(ckptBudget)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	assertSameResult(t, "resumed", ref, rres)
}

// refCycles measures the uninterrupted cycle count so tests can aim k at a
// mid-run boundary.
func refCycles(t *testing.T, c ckptCase) int64 {
	t.Helper()
	res, err := c.newCore(t).Run(ckptBudget)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return res.Stats.Cycles
}

// TestCheckpointResumeOnWorkloads checks checkpoint/resume transparency for
// every benchmark workload: the baseline program plus all four TCA
// integration modes, snapshotting halfway through the run. Traces are left
// on so the comparison covers the accel-event and pipeline traces, not just
// scalar counters.
func TestCheckpointResumeOnWorkloads(t *testing.T) {
	for _, sw := range standardWorkloads(t) {
		traced := sw.cfg
		traced.RecordAccelEvents = true
		traced.PipeTraceLimit = 300
		t.Run(sw.name+"-baseline", func(t *testing.T) {
			c := ckptCase{name: sw.name, cfg: traced, prog: sw.w.Baseline}
			assertCheckpointTransparent(t, c, refCycles(t, c)/2)
		})
		for _, m := range accel.AllModes {
			t.Run(fmt.Sprintf("%s-%s", sw.name, m), func(t *testing.T) {
				cfg := traced
				cfg.Mode = m
				c := ckptCase{name: sw.name, cfg: cfg, prog: sw.w.Accelerated, dev: sw.w.NewDevice}
				assertCheckpointTransparent(t, c, refCycles(t, c)/2)
			})
		}
	}
}

// TestCheckpointResumeAtManyBoundaries sweeps the snapshot cycle across the
// run — near fetch of the first instructions, mid-run with the ROB full and
// invocations in flight, and just before halt.
func TestCheckpointResumeAtManyBoundaries(t *testing.T) {
	w, err := workload.Heap(workload.HeapConfig{
		Operations: 120, FillerPerCall: 40, Prefill: 64, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := LowPerfConfig()
	cfg.Mode = accel.LT
	cfg.RecordAccelEvents = true
	cfg.PipeTraceLimit = 300
	c := ckptCase{cfg: cfg, prog: w.Accelerated, dev: w.NewDevice}
	total := refCycles(t, c)
	for _, num := range []int64{1, 2, 4, 6, 7} {
		k := total * num / 8
		if k < 1 {
			k = 1
		}
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			assertCheckpointTransparent(t, c, k)
		})
	}
}

// TestCheckpointResumePartialSpeculation repeats the differential test with
// the confidence gate active, over the same random-program seeds the
// equivalence suite uses (the gate's wait counters and predictor-confidence
// state must survive the snapshot).
func TestCheckpointResumePartialSpeculation(t *testing.T) {
	opt := proggen.DefaultOptions()
	opt.AccelEvery = 2
	opt.HeapAccel = true
	heap := func() isa.AccelDevice {
		a := tcmalloc.New(0x200000, 1<<22)
		for c := 0; c < tcmalloc.NumClasses; c++ {
			if err := a.Refill(c, 256); err != nil {
				panic(err)
			}
		}
		return accel.NewHeap(a)
	}
	for seed := int64(400); seed < 408; seed++ {
		prog := proggen.Generate(seed, opt)
		for _, m := range []accel.Mode{accel.LNT, accel.LT} {
			for _, kind := range []string{"bimodal", "gshare"} {
				t.Run(fmt.Sprintf("seed%d-%s-%s", seed, m, kind), func(t *testing.T) {
					cfg := HighPerfConfig()
					cfg.Mode = m
					cfg.PartialSpeculation = true
					cfg.Predictor = PredictorConfig{Kind: kind}
					c := ckptCase{cfg: cfg, prog: prog, dev: heap}
					assertCheckpointTransparent(t, c, refCycles(t, c)/2)
				})
			}
		}
	}
}

// TestCheckpointParallelForks takes ONE warm suffix-free snapshot at the
// accel-fetch boundary and forks eight post-warmup variants from it
// concurrently — the scenario-store fast path. Each fork must match a fresh
// uninterrupted run of its own configuration; the shared Checkpoint is never
// mutated, which the race detector verifies when the suite runs under -race.
func TestCheckpointParallelForks(t *testing.T) {
	w, err := workload.KVStore(workload.KVStoreConfig{
		Operations: 100, FillerPerOp: 30, Buckets: 256, Keys: 64,
		LookupPct: 70, KeyWords: 4, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := A72Config()
	warm, err := New(base, w.Accelerated, w.NewDevice())
	if err != nil {
		t.Fatal(err)
	}
	paused, err := warm.RunToAccelFetch(ckptBudget)
	if err != nil {
		t.Fatal(err)
	}
	if !paused {
		t.Fatal("workload halted before any accel fetch")
	}
	ck, err := warm.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !ck.SuffixFree {
		t.Fatal("snapshot at the accel-fetch boundary should precede any accel dispatch")
	}
	for _, m := range accel.AllModes {
		for _, partial := range []bool{false, true} {
			m, partial := m, partial
			t.Run(fmt.Sprintf("%s-partial=%v", m, partial), func(t *testing.T) {
				t.Parallel()
				cfg := base
				cfg.Mode = m
				cfg.PartialSpeculation = partial
				fork, err := NewFromCheckpoint(cfg, w.Accelerated, w.NewDevice(), ck)
				if err != nil {
					t.Fatalf("NewFromCheckpoint: %v", err)
				}
				got, err := fork.Run(ckptBudget)
				if err != nil {
					t.Fatalf("forked run: %v", err)
				}
				fresh := ckptCase{cfg: cfg, prog: w.Accelerated, dev: w.NewDevice}
				want, err := fresh.newCore(t).Run(ckptBudget)
				if err != nil {
					t.Fatalf("reference run: %v", err)
				}
				assertSameResult(t, "fork", want, got)
			})
		}
	}
}

// bareDevice hides the AccelSnapshotter implementation of the device it
// wraps, modeling a device that cannot be snapshotted.
type bareDevice struct {
	isa.AccelDevice
}

// TestCheckpointValidation pins the rejection paths: suffix-bound snapshots
// refuse cross-mode resume, program mismatches are caught by the hash,
// corrupt bytes fail to decode, an invoked non-snapshottable device
// refuses to checkpoint (while a pristine one does not), and a snapshot
// without device state does not resume under a device that keeps state.
func TestCheckpointValidation(t *testing.T) {
	w, err := workload.Heap(workload.HeapConfig{
		Operations: 120, FillerPerCall: 40, Prefill: 64, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := LowPerfConfig()
	cfg.Mode = accel.LT
	c := ckptCase{cfg: cfg, prog: w.Accelerated, dev: w.NewDevice}
	total := refCycles(t, c)

	core := c.newCore(t)
	if paused, err := core.RunTo(ckptBudget, total/2); err != nil || !paused {
		t.Fatalf("RunTo: paused=%v err=%v", paused, err)
	}
	ck, err := core.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ck.SuffixFree {
		t.Fatalf("snapshot halfway through an accel workload should be suffix-bound")
	}

	// Suffix-bound snapshot, different mode: rejected.
	other := cfg
	other.Mode = accel.NLNT
	if _, err := NewFromCheckpoint(other, w.Accelerated, w.NewDevice(), ck); err == nil {
		t.Error("cross-mode resume from a suffix-bound snapshot was not rejected")
	}
	// Same canonical config, different program: rejected by the hash.
	if _, err := NewFromCheckpoint(cfg, w.Baseline, w.NewDevice(), ck); err == nil {
		t.Error("resume under a different program was not rejected")
	}
	// Prefix-identical configs that differ only in erased fields: accepted.
	renamed := cfg
	renamed.Name = "renamed"
	if _, err := NewFromCheckpoint(renamed, w.Accelerated, w.NewDevice(), ck); err != nil {
		t.Errorf("rename-only config change rejected: %v", err)
	}

	// Corrupt and truncated bytes fail to decode.
	data := ck.MarshalBinary()
	if _, err := UnmarshalCheckpoint(data[:len(data)/2]); err == nil {
		t.Error("truncated checkpoint decoded without error")
	}
	garbage := append([]byte(nil), data...)
	garbage[0] ^= 0xff
	if _, err := UnmarshalCheckpoint(garbage); err == nil {
		t.Error("bad magic decoded without error")
	}

	// A non-snapshottable device blocks checkpointing only once invoked.
	bare := c
	bare.dev = func() isa.AccelDevice { return bareDevice{w.NewDevice()} }
	bcore := bare.newCore(t)
	if pristine, err := bcore.Checkpoint(); err != nil {
		t.Errorf("pristine non-snapshottable device refused to checkpoint: %v", err)
	} else if _, err := NewFromCheckpoint(cfg, w.Accelerated, w.NewDevice(), pristine); err == nil {
		t.Error("snapshot without device state resumed under a device that keeps state")
	}
	if paused, err := bcore.RunTo(ckptBudget, total/2); err != nil || !paused {
		t.Fatalf("RunTo: paused=%v err=%v", paused, err)
	}
	if _, err := bcore.Checkpoint(); err == nil {
		t.Error("invoked non-snapshottable device did not refuse to checkpoint")
	}
}

// TestCheckpointRejectsUnwakeableOperands: a checkpoint that leaves a
// waiting operand where no wakeup reaches it fails to resume, instead of
// resuming into a consumer that waits forever. Each case corrupts a paused
// core around the oldest pending operand that has a younger resident and
// checkpoints it.
func TestCheckpointRejectsUnwakeableOperands(t *testing.T) {
	sw := standardWorkloads(t)[0]
	c := ckptCase{cfg: sw.cfg, prog: sw.w.Baseline}
	half := refCycles(t, c) / 2
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, core *Core, ci, s int)
	}{
		{"producer's wakeUses undercounts its consumers", func(t *testing.T, core *Core, ci, s int) {
			q := core.rob
			q.hotAt(q.indexOf(q.at(ci).srcs[s].producer)).wakeUses--
		}},
		{"operand waits on a younger entry", func(t *testing.T, core *Core, ci, s int) {
			// The claim moves along, so every wakeUses still counts
			// the operands naming its entry.
			q := core.rob
			q.hotAt(q.indexOf(q.at(ci).srcs[s].producer)).wakeUses--
			q.hotAt(ci+1).wakeUses++
			q.at(ci).srcs[s].producer = q.hotAt(ci + 1).seq
		}},
		{"operand waits on a completed entry", func(t *testing.T, core *Core, ci, s int) {
			q := core.rob
			d := 0
			for d < ci && q.hotAt(d).state != sDone {
				d++
			}
			if d == ci {
				t.Fatalf("no completed entry older than position %d", ci)
			}
			q.hotAt(q.indexOf(q.at(ci).srcs[s].producer)).wakeUses--
			q.hotAt(d).wakeUses++
			q.at(ci).srcs[s].producer = q.hotAt(d).seq
		}},
		{"pend mask names no source", func(t *testing.T, core *Core, ci, s int) {
			core.rob.hotAt(ci).pendMask |= 1 << 3
		}},
		{"issued entry has a pending operand", func(t *testing.T, core *Core, ci, s int) {
			core.rob.hotAt(ci).state = sIssued
			core.iqCount--
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			core := c.newCore(t)
			if paused, err := core.RunTo(ckptBudget, half); err != nil || !paused {
				t.Fatalf("RunTo: paused=%v err=%v", paused, err)
			}
			ci, s := pendingOperand(core)
			if ci < 0 {
				t.Fatalf("no pending operand with a younger resident at cycle %d", core.Cycle())
			}
			tc.corrupt(t, core, ci, s)
			ck, err := core.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := NewFromCheckpoint(c.cfg, c.prog, nil, ck); err == nil {
				t.Error("resume accepted an operand no wakeup reaches")
			}
		})
	}
}

// pendingOperand returns the position and source of the oldest pending
// operand whose entry has a younger resident, or -1.
func pendingOperand(c *Core) (pos, src int) {
	for i := 0; i+1 < c.rob.len(); i++ {
		for s := 0; s < 3; s++ {
			if c.rob.hotAt(i).pendMask&(1<<uint(s)) != 0 {
				return i, s
			}
		}
	}
	return -1, 0
}

// TestCheckpointComponentsRoundTrip: resuming from a mid-run checkpoint
// rebuilds the memory image, the hierarchy and the predictor deeply
// equal to the paused core's, and a core whose state re-encodes to the
// paused core's bytes, for every standard workload and mode and for a
// core with the L1I, next-line prefetch and both TLBs enabled. The
// byte comparison catches a walk that decodes differently from how it
// encodes, such as a wrong rebase of the ROB or the fetch queue.
func TestCheckpointComponentsRoundTrip(t *testing.T) {
	cfg, w := tinyCase(t)
	tiny := ckptCase{name: "tiny-l1i", cfg: cfg, prog: w.Accelerated, dev: w.NewDevice}
	for _, c := range append(workloadModeCases(t), tiny) {
		core := c.newCore(t)
		if _, err := core.RunTo(ckptBudget, refCycles(t, c)/2); err != nil {
			t.Fatalf("%s: RunTo: %v", c.name, err)
		}
		ck, err := core.Checkpoint()
		if err != nil {
			t.Fatalf("%s: Checkpoint: %v", c.name, err)
		}
		var dev isa.AccelDevice
		if c.dev != nil {
			dev = c.dev()
		}
		fork, err := NewFromCheckpoint(c.cfg, c.prog, dev, ck)
		if err != nil {
			t.Fatalf("%s: NewFromCheckpoint: %v", c.name, err)
		}
		if !reflect.DeepEqual(fork.mem, core.mem) {
			t.Errorf("%s: resumed memory image differs", c.name)
		}
		if !reflect.DeepEqual(fork.hier, core.hier) {
			t.Errorf("%s: resumed hierarchy differs", c.name)
		}
		if !reflect.DeepEqual(fork.pred, core.pred) {
			t.Errorf("%s: resumed predictor differs", c.name)
		}
		again, err := fork.Checkpoint()
		if err != nil {
			t.Fatalf("%s: resumed core cannot checkpoint: %v", c.name, err)
		}
		if !bytes.Equal(again.MarshalBinary(), ck.MarshalBinary()) {
			t.Errorf("%s: resumed core's checkpoint differs from the paused core's", c.name)
		}
		if c.name != tiny.name {
			continue
		}
		h := core.hier
		if l1i := h.L1I.Stats(); l1i.Prefetches == 0 || l1i.PrefetchHits == 0 {
			t.Errorf("%s: L1I prefetch counters %+v, want both moving", c.name, l1i)
		}
		if d, i := h.DTLB.Stats(), h.ITLB.Stats(); d.Misses == 0 || i.Misses == 0 {
			t.Errorf("%s: TLB counters %+v / %+v, want misses on both", c.name, d, i)
		}
	}
}

// TestCheckpointCorruptFrameIsResumeError: a blob whose hierarchy claims
// the wrong line count decodes, because State stays opaque until a
// resume, and the resume then fails with an error.
func TestCheckpointCorruptFrameIsResumeError(t *testing.T) {
	cfg, w := tinyCase(t)
	core := tinyPaused(t)
	bad, err := core.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	hier, err := ckpt.Encode(core.hier.WalkState)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(bad.State, hier)
	if at < 0 {
		t.Fatal("the hierarchy's encoding is not inside State")
	}
	// The first cache's line count follows the L1I presence byte, the
	// LRU stamp and the eight cache counters.
	bad.State[at+1+9*ckpt.WordBytes]++
	ck, err := UnmarshalCheckpoint(bad.MarshalBinary())
	if err != nil {
		t.Fatalf("blob with a corrupt hierarchy did not decode: %v", err)
	}
	if _, err := NewFromCheckpoint(cfg, w.Accelerated, w.NewDevice(), ck); err == nil {
		t.Error("resume accepted a hierarchy with the wrong line count")
	}
}

// coreFieldExemptions names the Core fields walkState leaves out, each
// with the reason. TestCheckpointWalksEveryCoreField demands that every
// other field survive an encode and decode.
var coreFieldExemptions = map[string]string{
	"cfg":               "construction input: a resume passes a compatible config to New",
	"prog":              "construction input: the header's ProgHash matches it",
	"dev":               "construction input: walkDevice walks its state",
	"devMem":            "construction input: derived from dev by New",
	"mem":               "component pointer: walkState calls its WalkState",
	"hier":              "component pointer: walkState calls its WalkState",
	"pred":              "component pointer: walkState calls bpred.WalkState",
	"now":               "header: Checkpoint.Now, written by restoreFrom alone (R6)",
	"accelDispatched":   "header: Checkpoint.SuffixFree",
	"fetchHead":         "the fetch queue is walked from its head and decodes at head 0",
	"pauseAt":           "pause plumbing: reset by every Run* entry point",
	"pauseOnAccelFetch": "pause plumbing: reset by every Run* entry point",
	"due":               "per-cycle scratch: complete() refills it",
	"quiet":             "per-cycle scratch: reset at the top of every cycle",
	"cycleStall":        "per-cycle scratch: reset at the top of every cycle",
	"cycleHeldAccel":    "per-cycle scratch: reset at the top of every cycle",
	"cycleConfWait":     "per-cycle scratch: reset at the top of every cycle",
	"overlay":           "per-cycle scratch: buildOverlay refills it per invocation",
}

// TestCheckpointWalksEveryCoreField: walkState is the only list of the
// core's checkpointed state, so a field it forgets would silently reset
// on every resume. Each Core field off the exemption list gets a value
// that differs from a fresh core's (a paused core's own value, or a
// nudged one where the pause left the fresh value), and must come back
// after walkState encodes the paused core and decodes into a fresh one.
// The ROB is compared oldest-first and the fetch queue from its head.
func TestCheckpointWalksEveryCoreField(t *testing.T) {
	cfg, w := tinyCase(t)
	core := tinyPaused(t)
	fresh, err := New(cfg, w.Accelerated, w.NewDevice())
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(core).Elem()
	for name := range coreFieldExemptions {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("exempted field %s is not a Core field", name)
		}
	}
	paused := reflect.ValueOf(core).Elem()
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, ok := coreFieldExemptions[name]; ok {
			continue
		}
		if sameCoreField(name, core, fresh) {
			nudge(t, name, settable(paused.Field(i)))
		}
		if sameCoreField(name, core, fresh) {
			t.Fatalf("cannot give field %s a value other than a fresh core's", name)
		}
	}
	state, err := ckpt.Encode(core.walkState)
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(cfg, w.Accelerated, w.NewDevice())
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Decode(state, got.walkState); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, ok := coreFieldExemptions[name]; !ok && !sameCoreField(name, got, core) {
			t.Errorf("field %s does not survive walkState: walk it or exempt it with a reason", name)
		}
	}
}

// sameCoreField compares one Core field of a and b: the ROB by its
// entries oldest-first, the fetch queue from its head, and any other
// field deeply, with an empty slice equal to a nil one.
func sameCoreField(name string, a, b *Core) bool {
	view := func(c *Core) reflect.Value {
		switch name {
		case "rob":
			n := c.rob.len()
			hot, cold := make([]robHot, n), make([]robEntry, n)
			for i := 0; i < n; i++ {
				hot[i], cold[i] = *c.rob.hotAt(i), *c.rob.at(i)
			}
			return reflect.ValueOf([2]any{hot, cold})
		case "fetchQ":
			return reflect.ValueOf(c.fetchQ[c.fetchHead:])
		}
		return settable(reflect.ValueOf(c).Elem().FieldByName(name))
	}
	va, vb := view(a), view(b)
	if va.Kind() == reflect.Slice && va.Len() == 0 && vb.Len() == 0 {
		return true
	}
	return reflect.DeepEqual(va.Interface(), vb.Interface())
}

// settable makes an unexported field readable and writable.
func settable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// nudge changes v away from its current value: a flag flips, a number
// grows, a slice gains an element, and an array or struct has its first
// element or field nudged.
func nudge(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	case reflect.Array:
		nudge(t, name, v.Index(0))
	case reflect.Struct:
		nudge(t, name, settable(v.Field(0)))
	default:
		t.Fatalf("cannot nudge field %s of kind %s", name, v.Kind())
	}
}
