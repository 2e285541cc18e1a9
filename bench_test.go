// Package repro's top-level benchmarks regenerate every table and figure
// of the paper's evaluation (one sub-benchmark per section of the
// figures artifact) plus micro-benchmarks of the engines underneath.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Benchmarks shrink the simulated sweeps enough to iterate; cmd/figures
// regenerates the full-size artifacts.
package repro

import (
	"io"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/staticmodel"
	"repro/internal/workload"
)

// BenchmarkArtifact regenerates each section of the figures artifact
// at its -quick sizes, one sub-benchmark per section (named by its -fig
// IDs), without a store so every iteration simulates.
func BenchmarkArtifact(b *testing.B) {
	for _, sec := range experiments.Sections {
		b.Run(strings.Join(sec.IDs, "+"), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sec.Run(io.Discard, experiments.Options{Quick: true, MatMulN: 64}, "all"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5HeapWarmupFork measures what warm-checkpoint forking buys
// on a warmup-heavy heap design-space sweep: the Fig. 5 heap workload
// with a 200k-instruction scalar warmup ahead of its accelerated region,
// swept over every post-warmup config variant (four TCA modes x partial
// speculation on/off x accel-event recording on/off = 16 points in one
// warmup family). With forking the store simulates the shared prefix
// once and forks the 16 variants off that checkpoint; Direct
// re-simulates the prefix per point. The
// Fork/Direct pair is the headline claim of warm-state checkpointing:
// Direct ns/op over Fork ns/op should exceed 2x. BENCH_PR6.json records
// both.
func BenchmarkFig5HeapWarmupFork(b *testing.B) {
	w, err := workload.Heap(workload.HeapConfig{
		Operations: 40, FillerPerCall: 0, Prefill: 512, Seed: 7,
		WarmupFiller: 200_000,
	})
	if err != nil {
		b.Fatal(err)
	}
	var specs []scenario.Spec
	for _, m := range accel.AllModes {
		for _, partial := range []bool{false, true} {
			for _, record := range []bool{false, true} {
				cfg := sim.HighPerfConfig()
				cfg.Mode = m
				cfg.PartialSpeculation = partial
				cfg.RecordAccelEvents = record
				specs = append(specs, scenario.Spec{
					Config:    cfg,
					Program:   w.Accelerated,
					NewDevice: w.NewDevice,
					DeviceKey: w.DeviceKey,
					MaxCycles: experiments.MaxCycles,
				})
			}
		}
	}
	sweep := func(b *testing.B, fork bool) {
		b.Helper()
		var forks, warmups int64
		for i := 0; i < b.N; i++ {
			store, err := scenario.NewStore("")
			if err != nil {
				b.Fatal(err)
			}
			if !fork {
				store.DisableCheckpointForking()
			}
			for _, spec := range specs {
				if _, err := store.RunStats(spec); err != nil {
					b.Fatal(err)
				}
			}
			m := store.Metrics()
			forks += m.CkptForks
			warmups += m.CkptWarmups
		}
		b.ReportMetric(float64(forks)/float64(b.N), "ckpt-forks/op")
		b.ReportMetric(float64(warmups)/float64(b.N), "ckpt-warmups/op")
	}
	b.Run("Fork", func(b *testing.B) { sweep(b, true) })
	b.Run("Direct", func(b *testing.B) { sweep(b, false) })
}

// --- engine micro-benchmarks ---

// BenchmarkModelEvaluate measures one analytical model evaluation.
func BenchmarkModelEvaluate(b *testing.B) {
	p := core.HPCore().Apply(core.Params{
		AcceleratableFrac: 0.3, InvocationFreq: 0.003, AccelFactor: 3,
	})
	for i := 0; i < b.N; i++ {
		if _, err := p.Evaluate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures out-of-order simulation throughput in
// instructions per second on the synthetic workload.
func BenchmarkSimulator(b *testing.B) {
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Units: 400, UnitLen: 25, Regions: 20, RegionLen: 60, AccelLatency: 12, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	var instr uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := sim.New(sim.HighPerfConfig(), w.Baseline, nil)
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.Run(1 << 40)
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

// BenchmarkStaticRank measures the analytical fast-path tier ranking a
// 1000-point design space of the BenchmarkSimulator workload: profile
// the baseline and accelerated programs once (one O(N) walk each), then
// predict all four mode speedups for every machine variant. The
// headline contract (DESIGN.md, "Analytical fast-path tier") is that
// the whole ranking costs less than ONE cycle-accurate BenchmarkSimulator
// run — that ratio is what makes frontier-pruned sweeps worthwhile.
func BenchmarkStaticRank(b *testing.B) {
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Units: 400, UnitLen: 25, Regions: 20, RegionLen: 60, AccelLatency: 12, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	// A 4-axis grid around the HP core: 5 x 8 x 5 x 5 = 1000 machines.
	base := experiments.StaticMachine(sim.HighPerfConfig())
	var machines []staticmodel.Machine
	for _, dw := range []int{1, 2, 3, 4, 6} {
		for _, rob := range []int{32, 48, 64, 96, 128, 192, 256, 384} {
			for _, alus := range []int{1, 2, 3, 4, 6} {
				for _, mem := range []int{1, 2, 3, 4, 8} {
					m := base
					m.DispatchWidth, m.IssueWidth, m.CommitWidth = dw, dw, dw
					m.ROBSize = rob
					m.IntALUs = alus
					m.MemPorts = mem
					machines = append(machines, m)
				}
			}
		}
	}
	var configs uint64
	var best float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		basep, err := staticmodel.NewProfile(w.Baseline)
		if err != nil {
			b.Fatal(err)
		}
		accp, err := staticmodel.NewProfile(w.Accelerated)
		if err != nil {
			b.Fatal(err)
		}
		in := staticmodel.Input{
			Baseline: basep, Accelerated: accp,
			Acceleratable: w.Acceleratable, Invocations: w.Invocations,
			BaselineInstructions: w.BaselineInstructions,
			AccelLatency:         w.AccelLatency,
		}
		best = 0
		for _, m := range machines {
			pred, err := staticmodel.Predict(in, m)
			if err != nil {
				b.Fatal(err)
			}
			if s := pred.Mode(pred.BestMode()).Speedup; s > best {
				best = s
			}
			configs++
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(configs)/sec, "configs/s")
	}
	b.ReportMetric(best, "best-L_T-speedup")
}

// BenchmarkInterpreter measures golden-model throughput.
func BenchmarkInterpreter(b *testing.B) {
	w, err := workload.Synthetic(workload.SyntheticConfig{
		Units: 400, UnitLen: 25, Regions: 20, RegionLen: 60, AccelLatency: 12, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := isa.NewInterp(w.Baseline, nil)
		if err := it.Run(1 << 40); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheHierarchy measures the memory-timing model on an
// L1-resident streaming pattern.
func BenchmarkCacheHierarchy(b *testing.B) {
	h := mem.NewHierarchy(mem.DefaultHierarchy())
	now := int64(0)
	for i := 0; i < b.N; i++ {
		now = h.Access(now, uint64(i%512)*64, i%8 == 0)
	}
}
