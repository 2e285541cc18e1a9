// Command tcasim runs one of the paper's workloads on the cycle-level
// out-of-order simulator and prints pipeline statistics, for baseline and
// any TCA integration mode.
//
// Usage:
//
//	tcasim -workload synthetic|heap|matmul|kvstore|stringmatch|regexmatch|
//	                 multitca|daestream|loopnest
//	       [-mode L_T|NL_T|L_NT|NL_NT|baseline] [-core hp|lp|a72]
//	       [-spec JSON]
//
// -workload picks the kind's default configuration; -spec, a workload
// spec in the scenariod wire schema, is decoded over it, so it names
// only the fields to change. Examples:
//
//	tcasim -workload heap -mode L_T -spec '{"heap":{"FillerPerCall":20}}'
//	tcasim -workload matmul -mode NL_NT -spec '{"matmul":{"N":64,"Tile":4}}'
//	tcasim -workload synthetic -mode baseline
//	tcasim -workload kvstore -mode L_T -spec '{"kvstore":{"Operations":400}}'
//	tcasim -workload regexmatch -mode L_T -spec '{"regexmatch":{"Pattern":"[ab]*abb"}}'
//	tcasim -workload loopnest -mode L_T -spec '{"loopnest":{"Trips":8,"Depth":2}}'
//
// -dump-scenario prints the canonical scenario description and
// content digest of the run the flags select — the identity the
// scenario store caches under — without simulating anything.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/accel"
	"repro/internal/isa"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	var (
		wl       = flag.String("workload", "synthetic", "workload: "+strings.Join(workload.Kinds(), ", "))
		specJSON = flag.String("spec", "", `workload spec JSON in the scenariod wire schema, decoded over the -workload default (e.g. '{"heap":{"Operations":1000}}')`)
		mode     = flag.String("mode", "L_T", "TCA mode (L_T, NL_T, L_NT, NL_NT) or 'baseline'")
		coreSel  = flag.String("core", "hp", "core preset: hp, lp, a72")
		trace    = flag.Int("trace", 0, "render a pipeline diagram for the first N committed instructions")
		noFF     = flag.Bool("no-fast-forward", false, "simulate every cycle instead of event-horizon skipping (results are identical; for debugging and A/B timing)")
		dump     = flag.Bool("dump-scenario", false, "print the canonical scenario spec and digest for this run, then exit without simulating")
	)
	flag.Parse()

	cfg, err := corePreset(*coreSel)
	if err != nil {
		fail(err)
	}

	ws, err := workload.DefaultSpec(*wl)
	if err != nil {
		fail(err)
	}
	if *specJSON != "" {
		dec := json.NewDecoder(strings.NewReader(*specJSON))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ws); err != nil {
			fail(fmt.Errorf("-spec: %w", err))
		}
	}
	w, err := ws.Build()
	if err != nil {
		fail(err)
	}

	prog := w.Accelerated
	var dev isa.AccelDevice
	newDev := w.NewDevice
	devKey := w.DeviceKey
	if *mode == "baseline" {
		prog = w.Baseline
		newDev, devKey = nil, ""
	} else {
		m, perr := accel.ParseMode(*mode)
		if perr != nil {
			fail(perr)
		}
		cfg.Mode = m
		dev = w.NewDevice()
	}

	if *dump {
		cfg.PipeTraceLimit = *trace
		cfg.NoFastForward = *noFF
		spec := scenario.Spec{
			Config:    cfg,
			Program:   prog,
			NewDevice: newDev,
			DeviceKey: devKey,
			MaxCycles: 1 << 40,
		}
		if err := spec.Validate(); err != nil {
			fail(err)
		}
		fmt.Printf("workload:    %s — %s\n", w.Name, w.Description)
		spec.Describe(os.Stdout)
		return
	}

	fmt.Printf("workload: %s — %s\n", w.Name, w.Description)
	fmt.Printf("baseline accounting: %d instructions, a=%.3f, v=%.3g, granularity %.1f\n\n",
		w.BaselineInstructions, w.CoverageFrac(), w.InvocationFreq(), w.Granularity())

	cfg.PipeTraceLimit = *trace
	cfg.NoFastForward = *noFF
	c, err := sim.New(cfg, prog, dev)
	if err != nil {
		fail(err)
	}
	res, err := c.Run(1 << 40)
	if err != nil {
		fail(err)
	}
	fmt.Printf("core %s, mode %s:\n%s\nmemory: %s\n", cfg.Name, *mode, res.Stats, c.Hierarchy())
	if *trace > 0 {
		fmt.Println()
		fmt.Print(sim.RenderPipeTrace(res.Stats.PipeTrace, 120))
	}
}

func corePreset(name string) (sim.Config, error) {
	switch name {
	case "hp":
		return sim.HighPerfConfig(), nil
	case "lp":
		return sim.LowPerfConfig(), nil
	case "a72":
		return sim.A72Config(), nil
	default:
		return sim.Config{}, fmt.Errorf("unknown core preset %q (want hp, lp or a72)", name)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tcasim:", err)
	os.Exit(1)
}
