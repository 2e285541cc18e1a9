package sim

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/isa"
	"repro/internal/workload"
)

// benchRun simulates one program/device/mode combination to completion.
// check: "skip" demands the scheduler engaged, "noskip" that it never did,
// "any" imposes nothing.
func benchRun(b *testing.B, cfg Config, prog *isa.Program, dev func() isa.AccelDevice, check string) {
	b.Helper()
	var lastSkipped int64
	for i := 0; i < b.N; i++ {
		var d isa.AccelDevice
		if dev != nil {
			d = dev()
		}
		core, err := New(cfg, prog, d)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Run(2_000_000_000)
		if err != nil {
			b.Fatal(err)
		}
		lastSkipped = res.Stats.FastForwardedCycles
	}
	switch check {
	case "skip":
		if lastSkipped == 0 {
			b.Fatal("fast-forward never engaged on a bench built to exercise it")
		}
	case "noskip":
		if lastSkipped != 0 {
			b.Fatalf("NoFastForward bench skipped %d cycles", lastSkipped)
		}
	}
}

// BenchmarkRunFineGrain measures the per-cycle cost on a fine-grained
// workload: short TCA invocations (15 cycles) amid ALU filler, fully
// speculative, so most cycles have real work and fast-forwarding rarely
// engages. This guards the scheduler's overhead on busy code.
func BenchmarkRunFineGrain(b *testing.B) {
	prog := accelProgram(200, 20)
	cfg := HighPerfConfig()
	cfg.Mode = accel.LT
	dev := func() isa.AccelDevice { return accel.NewFixedLatency(15) }
	b.Run("FastForward", func(b *testing.B) {
		benchRun(b, cfg, prog, dev, "any")
	})
	cfgSlow := cfg
	cfgSlow.NoFastForward = true
	b.Run("NoFastForward", func(b *testing.B) {
		benchRun(b, cfgSlow, prog, dev, "noskip")
	})
}

// BenchmarkRunCoarseGrainNL_NT measures the scenario the event-horizon
// scheduler targets: 40 coarse-grained invocations (20k cycles each) under
// the NL drain and NT dispatch barrier, where almost every simulated cycle
// is idle. The FastForward variant must beat NoFastForward by >= 3x — the
// PR's headline acceptance criterion, recorded in BENCH_PR3.json.
func BenchmarkRunCoarseGrainNL_NT(b *testing.B) {
	prog := accelProgram(40, 30)
	cfg := LowPerfConfig()
	cfg.Mode = accel.NLNT
	dev := func() isa.AccelDevice { return accel.NewFixedLatency(20_000) }
	b.Run("FastForward", func(b *testing.B) {
		benchRun(b, cfg, prog, dev, "skip")
	})
	cfgSlow := cfg
	cfgSlow.NoFastForward = true
	b.Run("NoFastForward", func(b *testing.B) {
		benchRun(b, cfgSlow, prog, dev, "noskip")
	})
}

// BenchmarkRunMatMulHP measures the busy-cycle cost of the issue stage:
// the blocked-matmul baseline on the HP core keeps about 136 loads and
// FMAs resident on average, mostly waiting on each other, so nearly every
// cycle selects a few ready entries out of over a hundred, and
// fast-forwarding skips only about 4% of cycles.
func BenchmarkRunMatMulHP(b *testing.B) {
	w, err := workload.MatMul(workload.MatMulConfig{N: 32, Block: 16, Tile: 4, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	var instr uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core, err := New(HighPerfConfig(), w.Baseline, nil)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Run(2_000_000_000)
		if err != nil {
			b.Fatal(err)
		}
		instr += res.Stats.Committed
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(instr)/sec/1e6, "Minstr/s")
	}
}

// BenchmarkCheckpointCodec times one encode and one decode of a heap
// workload's warm checkpoint: the core paused at its first accelerator
// fetch after a 20k-instruction warmup, as the scenario store snapshots
// a warmup family. The store writes this blob to disk once and every
// fork off it decodes it. SetBytes counts the encoded blob, so the MB/s
// column is codec throughput for the round trip. The state frame is
// opaque to this codec; BenchmarkCheckpointFork times its decode.
func BenchmarkCheckpointCodec(b *testing.B) {
	ck, _ := heapWarmCheckpoint(b)
	b.SetBytes(int64(len(ck.MarshalBinary())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalCheckpoint(ck.MarshalBinary()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointFork times a warm replay's checkpoint traffic: one
// decode of the heap warm checkpoint's blob, then eight resumes from it,
// one per mode with and without partial speculation, each with a fresh
// device. A resume builds a core and decodes the state frame into it:
// the core's own fields, then the memory, hierarchy, predictor and
// device.
func BenchmarkCheckpointFork(b *testing.B) {
	ck, w := heapWarmCheckpoint(b)
	blob := ck.MarshalBinary()
	var cfgs []Config
	for _, m := range accel.AllModes {
		for _, partial := range []bool{false, true} {
			cfg := HighPerfConfig()
			cfg.Mode = m
			cfg.PartialSpeculation = partial
			cfgs = append(cfgs, cfg)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck, err := UnmarshalCheckpoint(blob)
		if err != nil {
			b.Fatal(err)
		}
		for _, cfg := range cfgs {
			if _, err := NewFromCheckpoint(cfg, w.Accelerated, w.NewDevice(), ck); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// heapWarmCheckpoint is the checkpoint BenchmarkCheckpointCodec times,
// with the workload it was taken from.
func heapWarmCheckpoint(tb testing.TB) (*Checkpoint, *workload.Workload) {
	tb.Helper()
	w, err := workload.Heap(workload.HeapConfig{
		Operations: 600, FillerPerCall: 20, Prefill: 512, Seed: 1, WarmupFiller: 20_000,
	})
	if err != nil {
		tb.Fatal(err)
	}
	core, err := New(HighPerfConfig().WarmupCanonical(), w.Accelerated, w.NewDevice())
	if err != nil {
		tb.Fatal(err)
	}
	if paused, err := core.RunToAccelFetch(2_000_000_000); err != nil || !paused {
		tb.Fatalf("warmup did not pause at an accelerator fetch (err %v)", err)
	}
	ck, err := core.Checkpoint()
	if err != nil {
		tb.Fatal(err)
	}
	return ck, w
}
