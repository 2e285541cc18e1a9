package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options are what every artifact section shares: cmd/figures' flags.
type Options struct {
	// Store caches every simulation; nil executes directly.
	Store *scenario.Store
	// Parallel is the sweep width (<= 0 selects GOMAXPROCS).
	Parallel int
	// Quick shrinks every simulated sweep to its smoke-run size.
	Quick bool
	// MatMulN is Fig 6's matrix edge; Quick overrides it.
	MatMulN int
	// Prune enables the static pre-pass on the Fig 4 and Fig 5 sweeps.
	Prune *StaticPruneConfig
}

// Fig4 is the Fig 4 sweep these options select.
func (o Options) Fig4() Fig4Config {
	cfg := DefaultFig4()
	cfg.Parallel, cfg.Store, cfg.Prune = o.Parallel, o.Store, o.Prune
	if o.Quick {
		cfg.RegionCounts = []int{5, 40, 320}
	}
	return cfg
}

// Fig5 is the Fig 5 sweep these options select.
func (o Options) Fig5() Fig5Config {
	cfg := DefaultFig5()
	cfg.Parallel, cfg.Store, cfg.Prune = o.Parallel, o.Store, o.Prune
	if o.Quick {
		cfg.Operations = 200
		cfg.FillerCounts = []int{0, 20, 160}
	}
	return cfg
}

// Output is what a section returns besides its text.
type Output struct {
	// CSV is the data for the section's CSV file.
	CSV string
	// Prune is the static pre-pass report, when one ran.
	Prune *PruneReport
}

// Section is one section of the figures artifact.
type Section struct {
	// IDs are the -fig values that select the section.
	IDs   []string
	Title string
	// InAll includes the section in -fig all.
	InAll bool
	// CSV names the file the section writes under -out ("" for none).
	CSV string
	// Run writes the section's text to w. fig is the -fig value that
	// selected it; only the ablations, one section for two IDs, read it.
	Run func(w io.Writer, o Options, fig string) (Output, error)
}

// Select returns the sections -fig fig regenerates, in table order:
// every InAll section for "all", else the section listing fig.
func Select(fig string) ([]Section, error) {
	var out []Section
	for _, s := range Sections {
		if fig == "all" && s.InAll || slices.Contains(s.IDs, fig) {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown -fig %q (want one of %s)", fig, strings.Join(IDs(), ", "))
	}
	return out, nil
}

// IDs lists every -fig value: "all", then each section's IDs.
func IDs() []string {
	ids := []string{"all"}
	for _, s := range Sections {
		ids = append(ids, s.IDs...)
	}
	return ids
}

// Sections is the figures artifact, in output order. Every -quick size
// is set here or in the Options methods above.
var Sections = []Section{
	{IDs: []string{"2"}, Title: "Figure 2 — speedup vs accelerator granularity (analytical)", InAll: true, CSV: "fig2.csv",
		Run: func(w io.Writer, _ Options, _ string) (Output, error) {
			res, err := Fig2(DefaultFig2())
			if err != nil {
				return Output{}, err
			}
			fmt.Fprint(w, res.Render())
			return Output{CSV: res.CSV()}, nil
		}},
	{IDs: []string{"3"}, Title: "Figure 3 — per-mode interval timelines (illustrative)", InAll: true,
		Run: func(w io.Writer, _ Options, _ string) (Output, error) {
			p := core.HPCore().Apply(core.Params{
				AcceleratableFrac: 0.3, InvocationFreq: 0.003, AccelFactor: 3,
			})
			txt, err := Fig3(p)
			if err != nil {
				return Output{}, err
			}
			fmt.Fprint(w, txt)
			return Output{}, nil
		}},
	{IDs: []string{"4"}, Title: "Figure 4 — model error on the synthetic microbenchmark (simulated)", InAll: true, CSV: "fig4.csv",
		Run: func(w io.Writer, o Options, _ string) (Output, error) {
			res, err := Fig4(o.Fig4())
			if err != nil {
				return Output{}, err
			}
			fmt.Fprint(w, res.Render())
			fmt.Fprintf(w, "\nmax |error| across sweep: %.1f%%\n", 100*res.MaxAbsError())
			return Output{CSV: res.CSV(), Prune: res.Prune}, nil
		}},
	{IDs: []string{"5"}, Title: "Figure 5 — heap manager TCA validation (simulated)", InAll: true, CSV: "fig5.csv",
		Run: func(w io.Writer, o Options, _ string) (Output, error) {
			res, err := Fig5(o.Fig5())
			if err != nil {
				return Output{}, err
			}
			fmt.Fprint(w, res.Render())
			fmt.Fprintf(w, "\nmax |error| across sweep: %.1f%%\n", 100*res.MaxAbsError())
			return Output{CSV: res.CSV(), Prune: res.Prune}, nil
		}},
	{IDs: []string{"6"}, Title: "Figure 6 — DGEMM TCA validation (simulated)", InAll: true, CSV: "fig6.csv",
		Run: func(w io.Writer, o Options, _ string) (Output, error) {
			cfg := DefaultFig6()
			cfg.Parallel, cfg.Store, cfg.N = o.Parallel, o.Store, o.MatMulN
			if o.Quick {
				cfg.N, cfg.Block = 32, 16
			}
			res, err := Fig6(cfg)
			if err != nil {
				return Output{}, err
			}
			fmt.Fprint(w, res.Render())
			fmt.Fprintf(w, "\nmax |error| across tiles/modes: %.1f%%\n", 100*res.MaxAbsError())
			return Output{CSV: res.CSV()}, nil
		}},
	{IDs: []string{"7"}, Title: "Figure 7 — design-space heatmaps (analytical)", InAll: true, CSV: "fig7.csv",
		Run: func(w io.Writer, o Options, _ string) (Output, error) {
			res, err := Fig7(DefaultFig7())
			if err != nil {
				return Output{}, err
			}
			fmt.Fprint(w, res.Render())
			// Spot-check the red/blue boundary on the simulator.
			cfg := DefaultFig7Sim()
			cfg.Parallel, cfg.Store = o.Parallel, o.Store
			sv, err := Fig7Sim(cfg)
			if err != nil {
				return Output{}, err
			}
			fmt.Fprintln(w)
			fmt.Fprint(w, sv.Render())
			return Output{CSV: res.CSV()}, nil
		}},
	{IDs: []string{"8"}, Title: "Figure 8 — concurrency: speedup vs coverage (analytical)", InAll: true, CSV: "fig8.csv",
		Run: func(w io.Writer, _ Options, _ string) (Output, error) {
			res, err := Fig8(DefaultFig8())
			if err != nil {
				return Output{}, err
			}
			fmt.Fprint(w, res.Render())
			return Output{CSV: res.CSV()}, nil
		}},
	{IDs: []string{"e1"}, Title: "Extension E1 — LogCA vs the TCA model (analytical)", InAll: true, CSV: "e1.csv",
		Run: func(w io.Writer, _ Options, _ string) (Output, error) {
			res, err := E1(DefaultE1())
			if err != nil {
				return Output{}, err
			}
			fmt.Fprint(w, res.Render())
			return Output{CSV: res.CSV()}, nil
		}},
	{IDs: []string{"e2"}, Title: "Extension E2 — Pareto study of mode hardware costs (analytical)", InAll: true, CSV: "e2.csv",
		Run: func(w io.Writer, _ Options, _ string) (Output, error) {
			res, err := E2(core.HPCore(), []float64{30, 100, 300, 1e3, 1e4, 1e6})
			if err != nil {
				return Output{}, err
			}
			fmt.Fprint(w, res.Render())
			return Output{CSV: res.CSV()}, nil
		}},
	{IDs: []string{"e3"}, Title: "Extension E3 — confidence-gated partial TCA speculation (simulated)", InAll: true, CSV: "e3.csv",
		Run: func(w io.Writer, o Options, _ string) (Output, error) {
			cfg := DefaultE3()
			cfg.Parallel, cfg.Store = o.Parallel, o.Store
			if o.Quick {
				cfg.Iterations = 150
				cfg.SkipEvery = []int{3, 8}
			}
			res, err := E3(cfg)
			if err != nil {
				return Output{}, err
			}
			fmt.Fprint(w, res.Render())
			return Output{CSV: res.CSV()}, nil
		}},
	{IDs: []string{"e4"}, Title: "Extension E4 — hash-map and string-compare TCA validation (simulated)", InAll: true, CSV: "e4.csv",
		Run: func(w io.Writer, o Options, _ string) (Output, error) {
			cfg := DefaultE4()
			cfg.Parallel, cfg.Store = o.Parallel, o.Store
			if o.Quick {
				cfg.Operations = 200
				cfg.FillerCounts = []int{5, 80}
			}
			res, err := E4(cfg)
			if err != nil {
				return Output{}, err
			}
			fmt.Fprint(w, res.Render())
			fmt.Fprintf(w, "\nmax |error| across study: %.1f%%\n", 100*res.MaxAbsError())
			return Output{CSV: res.CSV()}, nil
		}},
	{IDs: []string{"e5"}, Title: "Extension E5 — heterogeneous multi-TCA complex (simulated)", InAll: true, CSV: "e5.csv",
		Run: func(w io.Writer, o Options, _ string) (Output, error) {
			cfg := DefaultE5()
			cfg.Parallel, cfg.Store = o.Parallel, o.Store
			if o.Quick {
				cfg.Calls = 60
				cfg.FillerCounts = []int{50, 800}
			}
			res, err := E5(cfg)
			if err != nil {
				return Output{}, err
			}
			fmt.Fprint(w, res.Render())
			fmt.Fprintf(w, "\nmax |error| across study: %.1f%%\n", 100*res.MaxAbsError())
			return Output{CSV: res.CSV()}, nil
		}},
	{IDs: []string{"a1", "a2"}, Title: "Ablations — drain estimation (A1) and LSQ disambiguation (A2)", InAll: true,
		Run: func(w io.Writer, o Options, fig string) (Output, error) {
			wl, err := workload.Heap(workload.HeapConfig{
				Operations: 400, FillerPerCall: 40, Prefill: 512, Seed: 11,
			})
			if err != nil {
				return Output{}, err
			}
			if fig != "a2" {
				res, err := MeasureWorkloadStore(o.Store, sim.HighPerfConfig(), wl, o.Parallel)
				if err != nil {
					return Output{}, err
				}
				rows, err := DrainAblation(res)
				if err != nil {
					return Output{}, err
				}
				fmt.Fprint(w, RenderDrainAblation(rows))
				fmt.Fprintln(w)
			}
			if fig != "a1" {
				ab, err := LoadOrderingStore(o.Store, sim.HighPerfConfig(), wl, o.Parallel)
				if err != nil {
					return Output{}, err
				}
				fmt.Fprint(w, ab.Render())
			}
			return Output{}, nil
		}},
	// The two on-demand studies stay out of "all", which keeps the stock
	// artifact byte-stable: staticerr re-simulates the Fig 4/5 sweeps at
	// their own sizes, devcross covers the device-engine families.
	{IDs: []string{"staticerr"}, Title: "Static tier — static-vs-simulated speedup error (Fig 4 + Fig 5 points)", CSV: "staticerr.csv",
		Run: func(w io.Writer, o Options, _ string) (Output, error) {
			cfg := StaticErrConfig{Fig4: o.Fig4(), Fig5: o.Fig5(), Parallel: o.Parallel, Store: o.Store}
			res, err := StaticErr(cfg)
			if err != nil {
				return Output{}, err
			}
			fmt.Fprint(w, res.Render())
			return Output{CSV: res.CSV()}, nil
		}},
	{IDs: []string{"devcross"}, Title: "Device engine — DAE and loop-accelerator mode crossover (simulated)", CSV: "devcross.csv",
		Run: func(w io.Writer, o Options, _ string) (Output, error) {
			cfg := DefaultDevCross()
			cfg.Parallel, cfg.Store = o.Parallel, o.Store
			if o.Quick {
				cfg.DAE.Streams = 6
				cfg.DAEWords = []int{4, 64}
				cfg.Loop.Calls = 6
				cfg.LoopTrips = []int{2, 8}
			}
			res, err := DevCross(cfg)
			if err != nil {
				return Output{}, err
			}
			fmt.Fprint(w, res.Render())
			return Output{CSV: res.CSV()}, nil
		}},
}
