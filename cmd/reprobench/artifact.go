package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// artifactSection is one section of the `figures -fig all` artifact: its
// title, the span its driver calls are timed under, and the calls.
type artifactSection struct {
	title  string
	span   string
	render func(w io.Writer, a artifactRun) error
}

// artifactRun is what every driver call of one regeneration shares.
type artifactRun struct {
	store    *scenario.Store
	parallel int
	quick    bool
}

// renderArtifact regenerates the stock `figures -fig all` stdout in
// process, through the given store, timing each section's driver calls
// as a child span of parent. It follows cmd/figures section for
// section; the byte comparison against figures_output.txt is what keeps
// the two in step. quick applies cmd/figures' -quick sizes.
func renderArtifact(a artifactRun, tr *tracer, parent int64) ([]byte, error) {
	var buf bytes.Buffer
	for _, sec := range artifactSections {
		fmt.Fprintf(&buf, "\n%s\n%s\n\n", sec.title, strings.Repeat("=", len(sec.title)))
		sp := tr.begin(sec.span, parent)
		err := sec.render(&buf, a)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sec.title, err)
		}
	}
	return buf.Bytes(), nil
}

var artifactSections = []artifactSection{
	{"Figure 2 — speedup vs accelerator granularity (analytical)", "experiments.analytical", func(w io.Writer, _ artifactRun) error {
		res, err := experiments.Fig2(experiments.DefaultFig2())
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Render())
		return nil
	}},
	{"Figure 3 — per-mode interval timelines (illustrative)", "experiments.analytical", func(w io.Writer, _ artifactRun) error {
		p := core.HPCore().Apply(core.Params{AcceleratableFrac: 0.3, InvocationFreq: 0.003, AccelFactor: 3})
		txt, err := experiments.Fig3(p)
		if err != nil {
			return err
		}
		fmt.Fprint(w, txt)
		return nil
	}},
	{"Figure 4 — model error on the synthetic microbenchmark (simulated)", "experiments.fig4", func(w io.Writer, a artifactRun) error {
		cfg := experiments.DefaultFig4()
		cfg.Parallel, cfg.Store = a.parallel, a.store
		if a.quick {
			cfg.RegionCounts = []int{5, 40, 320}
		}
		res, err := experiments.Fig4(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Render())
		fmt.Fprintf(w, "\nmax |error| across sweep: %.1f%%\n", 100*res.MaxAbsError())
		return nil
	}},
	{"Figure 5 — heap manager TCA validation (simulated)", "experiments.fig5", func(w io.Writer, a artifactRun) error {
		cfg := experiments.DefaultFig5()
		cfg.Parallel, cfg.Store = a.parallel, a.store
		if a.quick {
			cfg.Operations = 200
			cfg.FillerCounts = []int{0, 20, 160}
		}
		res, err := experiments.Fig5(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Render())
		fmt.Fprintf(w, "\nmax |error| across sweep: %.1f%%\n", 100*res.MaxAbsError())
		return nil
	}},
	{"Figure 6 — DGEMM TCA validation (simulated)", "experiments.fig6", func(w io.Writer, a artifactRun) error {
		cfg := experiments.DefaultFig6()
		cfg.Parallel, cfg.Store = a.parallel, a.store
		cfg.N = 64 // cmd/figures' -matmul-n default
		if a.quick {
			cfg.N, cfg.Block = 32, 16
		}
		res, err := experiments.Fig6(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Render())
		fmt.Fprintf(w, "\nmax |error| across tiles/modes: %.1f%%\n", 100*res.MaxAbsError())
		return nil
	}},
	{"Figure 7 — design-space heatmaps (analytical)", "experiments.fig7", func(w io.Writer, a artifactRun) error {
		res, err := experiments.Fig7(experiments.DefaultFig7())
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Render())
		cfg := experiments.DefaultFig7Sim()
		cfg.Parallel, cfg.Store = a.parallel, a.store
		sv, err := experiments.Fig7Sim(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, sv.Render())
		return nil
	}},
	{"Figure 8 — concurrency: speedup vs coverage (analytical)", "experiments.analytical", func(w io.Writer, _ artifactRun) error {
		res, err := experiments.Fig8(experiments.DefaultFig8())
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Render())
		return nil
	}},
	{"Extension E1 — LogCA vs the TCA model (analytical)", "experiments.analytical", func(w io.Writer, _ artifactRun) error {
		res, err := experiments.E1(experiments.DefaultE1())
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Render())
		return nil
	}},
	{"Extension E2 — Pareto study of mode hardware costs (analytical)", "experiments.analytical", func(w io.Writer, _ artifactRun) error {
		res, err := experiments.E2(core.HPCore(), []float64{30, 100, 300, 1e3, 1e4, 1e6})
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Render())
		return nil
	}},
	{"Extension E3 — confidence-gated partial TCA speculation (simulated)", "experiments.e3", func(w io.Writer, a artifactRun) error {
		cfg := experiments.DefaultE3()
		cfg.Parallel, cfg.Store = a.parallel, a.store
		if a.quick {
			cfg.Iterations = 150
			cfg.SkipEvery = []int{3, 8}
		}
		res, err := experiments.E3(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Render())
		return nil
	}},
	{"Extension E4 — hash-map and string-compare TCA validation (simulated)", "experiments.e4", func(w io.Writer, a artifactRun) error {
		cfg := experiments.DefaultE4()
		cfg.Parallel, cfg.Store = a.parallel, a.store
		if a.quick {
			cfg.Operations = 200
			cfg.FillerCounts = []int{5, 80}
		}
		res, err := experiments.E4(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Render())
		fmt.Fprintf(w, "\nmax |error| across study: %.1f%%\n", 100*res.MaxAbsError())
		return nil
	}},
	{"Extension E5 — heterogeneous multi-TCA complex (simulated)", "experiments.e5", func(w io.Writer, a artifactRun) error {
		cfg := experiments.DefaultE5()
		cfg.Parallel, cfg.Store = a.parallel, a.store
		if a.quick {
			cfg.Calls = 60
			cfg.FillerCounts = []int{50, 800}
		}
		res, err := experiments.E5(cfg)
		if err != nil {
			return err
		}
		fmt.Fprint(w, res.Render())
		fmt.Fprintf(w, "\nmax |error| across study: %.1f%%\n", 100*res.MaxAbsError())
		return nil
	}},
	{"Ablations — drain estimation (A1) and LSQ disambiguation (A2)", "experiments.ablation", func(w io.Writer, a artifactRun) error {
		wl, err := workload.Heap(workload.HeapConfig{Operations: 400, FillerPerCall: 40, Prefill: 512, Seed: 11})
		if err != nil {
			return err
		}
		res, err := experiments.MeasureWorkloadStore(a.store, sim.HighPerfConfig(), wl, a.parallel)
		if err != nil {
			return err
		}
		rows, err := experiments.DrainAblation(res)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderDrainAblation(rows))
		fmt.Fprintln(w)
		ab, err := experiments.LoadOrderingStore(a.store, sim.HighPerfConfig(), wl, a.parallel)
		if err != nil {
			return err
		}
		fmt.Fprint(w, ab.Render())
		return nil
	}},
}
