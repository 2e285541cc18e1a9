package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/accel"
	"repro/internal/isa"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/tcmalloc"
	"repro/internal/textplot"
)

// E3Config parameterizes the partial-speculation study (§VIII future
// work): heap-TCA invocations behind a branch of configurable
// predictability.
type E3Config struct {
	Core sim.Config
	// Iterations of the call loop.
	Iterations int
	// SkipEvery makes the guard branch taken once every N iterations
	// (lower = less predictable pressure on speculative invocations).
	SkipEvery []int
	// Parallel is the study's worker count (<= 0 selects GOMAXPROCS).
	Parallel int
	// Store optionally caches and deduplicates runs; nil executes
	// everything directly with identical results.
	Store *scenario.Store
}

// DefaultE3 sweeps branch surprise rates.
func DefaultE3() E3Config {
	return E3Config{
		Core:       sim.HighPerfConfig(),
		Iterations: 400,
		SkipEvery:  []int{2, 3, 4, 8, 16},
	}
}

// E3Point is one (surprise rate, policy) measurement.
type E3Point struct {
	SkipEvery int
	// Cycles per policy.
	FullCycles, PartialCycles, NLCycles int64
	// Squashed speculative invocations per policy (NL squashes none by
	// construction).
	FullSquashed, PartialSquashed uint64
	// ConfidenceHeld counts gate engagements in the partial run.
	ConfidenceHeld int64
}

// E3Result is the study output.
type E3Result struct {
	Config E3Config
	Points []E3Point
}

// e3Program builds the guarded-invocation loop: malloc/free behind a
// branch taken every skipEvery iterations, with a slow divide delaying
// branch resolution so speculation has room to act.
func e3Program(iterations, skipEvery int) *isa.Program {
	b := isa.NewBuilder()
	b.MovI(isa.R(1), 0) // i
	b.MovI(isa.R(2), int64(iterations))
	b.MovI(isa.R(3), 48)
	b.MovI(isa.R(7), int64(skipEvery))
	b.Label("loop")
	b.Rem(isa.R(4), isa.R(1), isa.R(7))
	b.Beq(isa.R(4), isa.RZero, "skip")
	b.Accel(isa.R(5), accel.HeapMalloc, isa.R(3))
	b.Accel(isa.R(6), accel.HeapFree, isa.R(5))
	b.Label("skip")
	b.AddI(isa.R(1), isa.R(1), 1)
	b.Blt(isa.R(1), isa.R(2), "loop")
	b.Halt()
	return b.MustBuild()
}

func e3Device() isa.AccelDevice {
	a := tcmalloc.New(0x100000, 1<<22)
	if err := a.Refill(1, 128); err != nil {
		panic(err)
	}
	return accel.NewHeap(a)
}

// e3DeviceKey canonically names e3Device's construction for the
// scenario store.
const e3DeviceKey = "heap:arena=0x100000,size=4194304,refill=1x128"

// E3 measures full speculation, confidence-gated partial speculation, and
// no speculation on the simulator. Each surprise-rate point is one job;
// the three policy runs inside a point fan out as a nested sweep.
func E3(cfg E3Config) (*E3Result, error) {
	run := func(prog *isa.Program, mode accel.Mode, partial bool) (sim.Stats, error) {
		c := cfg.Core
		c.Mode = mode
		c.PartialSpeculation = partial
		c.Predictor = sim.PredictorConfig{Kind: "bimodal"}
		return cfg.Store.RunStats(scenario.Spec{
			Config:    c,
			Program:   prog,
			NewDevice: e3Device,
			DeviceKey: e3DeviceKey,
			MaxCycles: MaxCycles,
		})
	}
	policies := []struct {
		name    string
		mode    accel.Mode
		partial bool
	}{
		{"full", accel.LT, false},
		{"partial", accel.LT, true},
		{"NL", accel.NLT, false},
	}
	points, _, err := runner.Map(context.Background(), cfg.Parallel, cfg.SkipEvery,
		func(_ context.Context, _, se int) (E3Point, error) {
			prog := e3Program(cfg.Iterations, se)
			stats, _, err := runner.Sweep(context.Background(), cfg.Parallel, len(policies),
				func(_ context.Context, i int) (sim.Stats, error) {
					p := policies[i]
					s, err := run(prog, p.mode, p.partial)
					if err != nil {
						return sim.Stats{}, fmt.Errorf("experiments: E3 %s skip=%d: %w", p.name, se, err)
					}
					return s, nil
				})
			if err != nil {
				return E3Point{}, err
			}
			full, part, nl := stats[0], stats[1], stats[2]
			return E3Point{
				SkipEvery:       se,
				FullCycles:      full.Cycles,
				PartialCycles:   part.Cycles,
				NLCycles:        nl.Cycles,
				FullSquashed:    full.AccelSquashed,
				PartialSquashed: part.AccelSquashed,
				ConfidenceHeld:  part.AccelConfidenceWait,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return &E3Result{Config: cfg, Points: points}, nil
}

// Render tabulates the study.
func (r *E3Result) Render() string {
	var b strings.Builder
	b.WriteString("E3: partial TCA speculation (confidence-gated, §VIII future work)\n")
	b.WriteString("heap TCA behind a branch taken every N iterations; L_T core\n\n")
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("1/%d", p.SkipEvery),
			fmt.Sprintf("%d", p.FullCycles),
			fmt.Sprintf("%d", p.PartialCycles),
			fmt.Sprintf("%d", p.NLCycles),
			fmt.Sprintf("%d", p.FullSquashed),
			fmt.Sprintf("%d", p.PartialSquashed),
			fmt.Sprintf("%d", p.ConfidenceHeld),
		})
	}
	b.WriteString(textplot.Table([]string{
		"surprise", "full-spec cyc", "partial cyc", "no-spec cyc",
		"squashed(full)", "squashed(partial)", "gate holds",
	}, rows))
	b.WriteString("\nPartial speculation lands between L and NL: it trades a little latency\n")
	b.WriteString("for fewer wasted (rolled-back) invocations — less rollback energy, as the\n")
	b.WriteString("paper's future-work section anticipates.\n")
	return b.String()
}

// CSV serializes the study.
func (r *E3Result) CSV() string {
	var b strings.Builder
	b.WriteString("skip_every,full_cycles,partial_cycles,nl_cycles,full_squashed,partial_squashed,gate_holds\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%d,%d\n",
			p.SkipEvery, p.FullCycles, p.PartialCycles, p.NLCycles,
			p.FullSquashed, p.PartialSquashed, p.ConfidenceHeld)
	}
	return b.String()
}
