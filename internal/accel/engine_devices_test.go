package accel

import (
	"reflect"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/isa"
	"repro/internal/redfa"
	"repro/internal/tcmalloc"
)

func daeMem(base uint64, words int) *isa.Memory {
	m := isa.NewMemory()
	for w := 0; w < words; w++ {
		m.Store(base+uint64(w)*8, uint64(w)*3+1)
	}
	return m
}

func TestDAEFunctional(t *testing.T) {
	const base, words = 0x4000, 21
	m := daeMem(base, words)
	d := NewDAE(8, 5, 12)
	res := d.Invoke(isa.AccelCall{Kind: DAEReduce, Args: [3]uint64{base, words, 0}}, m)

	var want uint64
	for w := 0; w < words; w++ {
		want += uint64(w)*3 + 1
	}
	if res.Value != want {
		t.Errorf("sum = %d, want %d", res.Value, want)
	}
	if d.Invocations != 1 || d.WordsStreamed != words {
		t.Errorf("counters = (%d, %d), want (1, %d)", d.Invocations, d.WordsStreamed, words)
	}

	// Schedule shape: one startup phase, then one overlapped stream phase
	// whose access slice issues ceil(21/8) = 3 bursts (the last a 5-word
	// remainder) against 3 chunks' worth of execute-slice compute.
	sched := res.Schedule
	if len(sched) != 2 {
		t.Fatalf("schedule has %d phases, want 2", len(sched))
	}
	if sched[0].Compute != 12 || sched[0].Overlap || len(sched[0].MemOps) != 0 {
		t.Errorf("startup phase = %+v, want pure 12-cycle compute", sched[0])
	}
	stream := sched[1]
	if !stream.Overlap || stream.Compute != 3*5 {
		t.Errorf("stream phase = %+v, want overlapped %d-cycle compute", stream, 3*5)
	}
	if len(stream.MemOps) != 3 {
		t.Fatalf("stream phase has %d bursts, want 3", len(stream.MemOps))
	}
	for i, op := range stream.MemOps {
		wantSize := 64
		if i == 2 {
			wantSize = 5 * 8
		}
		if op.Store || op.Serial || op.Size != wantSize || op.Addr != base+uint64(i*8)*8 {
			t.Errorf("burst %d = %+v, want %dB contiguous load at %#x",
				i, op, wantSize, base+uint64(i*8)*8)
		}
	}
}

func TestDAENoStartupPhase(t *testing.T) {
	m := daeMem(0x4000, 4)
	d := NewDAE(4, 3, 0)
	res := d.Invoke(isa.AccelCall{Kind: DAEReduce, Args: [3]uint64{0x4000, 4, 0}}, m)
	if len(res.Schedule) != 1 {
		t.Errorf("zero-startup schedule has %d phases, want 1", len(res.Schedule))
	}
}

func TestDAEValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewDAE(0, 1, 0) },
		func() { NewDAE(9, 1, 0) }, // burst wider than 64B
		func() { NewDAE(4, 0, 0) },
		func() { NewDAE(4, 1, -1) },
		func() { NewDAE(4, 1, 0).Invoke(isa.AccelCall{Kind: 99}, nil) },
		func() { NewDAE(4, 1, 0).Invoke(isa.AccelCall{Kind: DAEReduce}, nil) }, // zero words
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid DAE config or call")
				}
			}()
			f()
		}()
	}
}

// lcgSteps replicates the loop accelerator's datapath on the host.
func lcgSteps(seed uint64, iters int) uint64 {
	x := seed
	for i := 0; i < iters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

func TestLoopNestFunctional(t *testing.T) {
	d := NewLoopNest(3, 2, 50)
	res := d.Invoke(isa.AccelCall{Kind: LoopNestRun, Args: [3]uint64{4, 7, 0}}, nil)

	// 4^3 = 64 innermost iterations.
	if want := lcgSteps(7, 64); res.Value != want {
		t.Errorf("value = %#x, want %#x", res.Value, want)
	}
	if d.Invocations != 1 || d.Iterations != 64 {
		t.Errorf("counters = (%d, %d), want (1, 64)", d.Invocations, d.Iterations)
	}
	sched := res.Schedule
	if len(sched) != 2 {
		t.Fatalf("schedule has %d phases, want 2 (config + run)", len(sched))
	}
	if sched[0].Compute != 50 || len(sched[0].MemOps) != 0 {
		t.Errorf("config phase = %+v, want pure 50-cycle compute", sched[0])
	}
	if sched[1].Compute != 64*2 || len(sched[1].MemOps) != 0 {
		t.Errorf("run phase = %+v, want pure %d-cycle compute", sched[1], 64*2)
	}
}

func TestLoopNestFreeConfig(t *testing.T) {
	d := NewLoopNest(1, 3, 0)
	res := d.Invoke(isa.AccelCall{Kind: LoopNestRun, Args: [3]uint64{5, 1, 0}}, nil)
	if len(res.Schedule) != 1 || res.Schedule[0].Compute != 15 {
		t.Errorf("schedule = %+v, want one 15-cycle phase", res.Schedule)
	}
}

func TestLoopNestValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewLoopNest(0, 1, 0) },
		func() { NewLoopNest(1, 0, 0) },
		func() { NewLoopNest(1, 1, -1) },
		func() { NewLoopNest(1, 1, 0).Invoke(isa.AccelCall{Kind: 99}, nil) },
		func() { NewLoopNest(1, 1, 0).Invoke(isa.AccelCall{Kind: LoopNestRun}, nil) }, // zero trips
		func() { // iteration bound: 2^21 exceeds the 2^20 cap
			NewLoopNest(21, 1, 0).Invoke(isa.AccelCall{Kind: LoopNestRun, Args: [3]uint64{2, 0, 0}}, nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid loop nest config or call")
				}
			}()
			f()
		}()
	}
}

func TestEngineDeviceInterfaceCompliance(t *testing.T) {
	var _ isa.AccelDevice = (*DAE)(nil)
	var _ isa.AccelMemoryUser = (*DAE)(nil)
	var _ isa.AccelSnapshotter = (*DAE)(nil)
	var _ isa.AccelDevice = (*LoopNest)(nil)
	var _ isa.AccelSnapshotter = (*LoopNest)(nil)
}

// TestSnapshotRoundTripAllCounters mutates every device family's state
// through real invocations, walks it out with WalkState and back into a
// fresh device of the same configuration, and requires the restored
// device to equal the original field-for-field (reflect.DeepEqual). This
// is the dynamic half of the counter-coverage guarantee; simlint R9's
// device-snapshot audit is the static half. The heap case leaves a
// journal of speculative invocations behind, and the mux nests the heap's
// frame beside a fixed-latency device's.
func TestSnapshotRoundTripAllCounters(t *testing.T) {
	m := daeMem(0x4000, 16)
	// The regex reads its input at 0x8000: a lone terminator, which
	// matches because the start state's final word is set.
	m.Store(0x8000, redfa.Terminator)
	m.Store(0x9000+8, 1)
	layout := redfa.Layout{TableBase: 0xa000, FinalBase: 0x9000, Start: 1, States: 2}
	heap := func() *Heap {
		a := tcmalloc.New(0x100000, 1<<20)
		for c := 0; c < tcmalloc.NumClasses; c++ {
			if err := a.Refill(c, 4); err != nil {
				panic(err)
			}
		}
		return NewHeap(a)
	}
	mux := func() isa.AccelDevice {
		d, err := NewMux(NewFixedLatency(3), heap())
		if err != nil {
			panic(err)
		}
		return d
	}
	// speculate leaves a heap journal: allocations and a free after a
	// mark that nothing trims, as in flight at a checkpoint.
	speculate := func(d isa.AccelDevice, kind func(int64) int64) {
		d.(isa.AccelJournal).Mark()
		p := d.Invoke(isa.AccelCall{Kind: kind(HeapMalloc), Args: [3]uint64{40}}, nil).Value
		d.Invoke(isa.AccelCall{Kind: kind(HeapMalloc), Args: [3]uint64{100}}, nil)
		d.Invoke(isa.AccelCall{Kind: kind(HeapFree), Args: [3]uint64{p}}, nil)
		d.Invoke(isa.AccelCall{Kind: kind(HeapFree), Args: [3]uint64{0xbad}}, nil)
	}
	cases := []struct {
		name  string
		dev   isa.AccelDevice
		fresh isa.AccelDevice
		drive func(d isa.AccelDevice)
	}{
		{
			"fixed", NewFixedLatency(9), NewFixedLatency(9),
			func(d isa.AccelDevice) {
				d.Invoke(isa.AccelCall{Args: [3]uint64{1, 0, 0}}, nil)
				d.Invoke(isa.AccelCall{Args: [3]uint64{2, 0, 0}}, nil)
			},
		},
		{
			"dae", NewDAE(8, 4, 10), NewDAE(8, 4, 10),
			func(d isa.AccelDevice) {
				d.Invoke(isa.AccelCall{Kind: DAEReduce, Args: [3]uint64{0x4000, 16, 0}}, m)
				d.Invoke(isa.AccelCall{Kind: DAEReduce, Args: [3]uint64{0x4000, 3, 0}}, m)
			},
		},
		{
			"loopnest", NewLoopNest(2, 3, 20), NewLoopNest(2, 3, 20),
			func(d isa.AccelDevice) {
				d.Invoke(isa.AccelCall{Kind: LoopNestRun, Args: [3]uint64{3, 11, 0}}, nil)
			},
		},
		{
			"heap", heap(), heap(),
			func(d isa.AccelDevice) { speculate(d, func(k int64) int64 { return k }) },
		},
		{
			"matmul", NewMatMul(2, 16), NewMatMul(2, 16),
			func(d isa.AccelDevice) {
				d.Invoke(isa.AccelCall{Kind: MatMulMAC, Args: [3]uint64{0x4000, 0x4000, 0x4000}}, m)
				d.(*MatMul).pending = nil // per-invocation scratch
			},
		},
		{
			"hashmap", NewHashMap(0x40000, 16), NewHashMap(0x40000, 16),
			func(d isa.AccelDevice) {
				hm := d.(*HashMap)
				invoke(hm, isa.NewMemory(), HashInsert, 42, 7)
				invoke(hm, m, HashLookup, 42)
				hm.pending = nil // per-invocation scratch
			},
		},
		{
			"regex", NewRegex(layout), NewRegex(layout),
			func(d isa.AccelDevice) {
				d.Invoke(isa.AccelCall{Kind: RegexMatch, Args: [3]uint64{0x8000}}, m)
				d.Invoke(isa.AccelCall{Kind: RegexMatch, Args: [3]uint64{0x4000}}, m)
			},
		},
		{
			"strcmp", NewStrCmp(), NewStrCmp(),
			func(d isa.AccelDevice) {
				d.Invoke(isa.AccelCall{Kind: StrCompare, Args: [3]uint64{0x4000, 0x4008}}, m)
			},
		},
		{
			"mux", mux(), mux(),
			func(d isa.AccelDevice) {
				d.Invoke(isa.AccelCall{Kind: MuxKind(0, 0), Args: [3]uint64{5}}, nil)
				speculate(d, func(k int64) int64 { return MuxKind(1, k) })
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.drive(c.dev)
			if reflect.DeepEqual(c.fresh, c.dev) {
				t.Fatal("driving the device changed none of its state")
			}
			frame, err := ckpt.Encode(c.dev.(isa.AccelSnapshotter).WalkState)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if err := ckpt.Decode(frame, c.fresh.(isa.AccelSnapshotter).WalkState); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(c.fresh, c.dev) {
				t.Errorf("restored device diverges:\n got %+v\nwant %+v", c.fresh, c.dev)
			}
			// Truncated frames must be rejected, not silently zeroed.
			if err := ckpt.Decode(frame[:len(frame)-1], c.fresh.(isa.AccelSnapshotter).WalkState); err == nil {
				t.Error("truncated frame accepted")
			}
		})
	}
}
