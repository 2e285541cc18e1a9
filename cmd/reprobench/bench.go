package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the measured phase
	trace    bool
	parallel int    // sweep workers
	dir      string // scratch directory for stores; removed by the caller
	artifact string // path of the expected `figures -fig all` stdout
	traceOut string // where a traced run writes its spans
	// tiny shrinks every workload to a smoke size; the sweeps then
	// compare against the quick artifact rendered with no store.
	tiny bool
}

// workloadImpl is one benchmark workload.
type workloadImpl interface {
	// setupReps is how many times setup runs; setup_s is their median.
	setupReps() int
	// setup prepares everything the iterations need.
	setup() error
	// iterate runs and checks one timed iteration.
	iterate(tr *tracer) (iterResult, error)
	// verify re-runs sampled outputs directly after the timed phase and
	// returns how many differ.
	verify() (int, error)
	close()
}

func newWorkload(cfg config) (workloadImpl, error) {
	switch cfg.workload {
	case "sweep-cold":
		return newSweep(cfg, false), nil
	case "sweep-warm":
		return newSweep(cfg, true), nil
	case "fleet":
		return newFleet(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want sweep-cold, sweep-warm or fleet)", cfg.workload)
}

// iterResult is what one timed iteration observed.
type iterResult struct {
	root      int64 // the iteration's root span (traced iterations)
	wall      time.Duration
	latencies []float64 // milliseconds per fleet request
	store     scenario.Metrics
	server    serve.ServerMetrics
	pool      runner.PoolMetrics
	stats     []sim.Stats // the distinct simulator results received

	attempted, failed int
	// problems lists traffic the workload's rationale needs but the
	// iteration did not produce.
	problems []string
}

// wrong counts one wrong or failed point or request.
func (r *iterResult) wrong(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "reprobench: wrong: "+format+"\n", args...)
}

// unexpected records traffic that contradicts the workload's rationale.
func (r *iterResult) unexpected(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostSample is the process-wide counters a traced iteration differences.
type hostSample struct {
	cpu time.Duration
	mem runtime.MemStats
}

func readHost() hostSample {
	var h hostSample
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		h.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.ReadMemStats(&h.mem)
	return h
}

// maxRSSMB is the process's peak resident set; Linux reports ru_maxrss
// in KiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// run executes one benchmark invocation and writes its report to out;
// the caller prints the returned result as the last line.
func run(cfg config, prov provenance, out io.Writer) (result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return result{}, err
	}
	defer w.close()

	var setups []float64
	for i := 0; i < w.setupReps(); i++ {
		runtime.GC() // as between iterations, below
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// The measured phase repeats whole iterations until their timed
	// parts add up to cfg.seconds. A traced run alternates untraced and
	// traced iterations, so the tracing overhead is measured in the
	// same run; only traced iterations feed the per-layer metrics.
	var (
		plain, traced []iterResult
		measured      time.Duration
		tr            = newTracer()
		prof          cpuProfiler
		hostDelta     hostSample
		// rss is the peak resident set once setup and the first
		// iteration are done: later iterations exist for timing, and
		// how many fit in a run must not move a memory figure.
		rss float64
	)
	for len(plain) == 0 || cfg.trace && len(traced) == 0 || measured.Seconds() < cfg.seconds {
		// Collect the previous iteration's garbage outside the timed
		// part, as testing.B does between rounds, so no iteration pays
		// for another's (sweep-warm's live heap runs to hundreds of MB).
		runtime.GC()
		if !cfg.trace || len(traced) >= len(plain) {
			r, err := w.iterate(nil)
			if err != nil {
				return result{}, err
			}
			plain, measured = append(plain, r), measured+r.wall
			if len(plain) == 1 {
				rss = maxRSSMB()
			}
			continue
		}
		before := readHost()
		if err := prof.start(); err != nil {
			return result{}, err
		}
		r, err := w.iterate(tr)
		if perr := prof.stop(); err == nil {
			err = perr
		}
		if err != nil {
			return result{}, err
		}
		after := readHost()
		hostDelta.add(before, after)
		traced, measured = append(traced, r), measured+r.wall
	}

	failed, err := w.verify()
	if err != nil {
		return result{}, fmt.Errorf("verify: %w", err)
	}
	res := result{Correct: true, Failed: failed, Metrics: map[string]metric{}}
	for _, r := range append(append([]iterResult(nil), plain...), traced...) {
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, p := range r.problems {
			fmt.Fprintln(os.Stderr, "reprobench: traffic:", p)
			res.Correct = false
		}
	}
	res.Correct = res.Correct && res.Failed == 0

	fmt.Fprintf(out, "provenance %s\n", prov)
	fmt.Fprintf(out, "%s: %d untraced and %d traced iterations, %.2f s measured\n",
		cfg.workload, len(plain), len(traced), measured.Seconds())
	fmt.Fprintf(out, "failed_frac %.4g (%d failed of %d attempted)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)

	var names []string
	if cfg.trace {
		names = layerMetrics(res.Metrics, plain, traced, tr.snapshot(), prof.buckets, hostDelta)
		if err := writeTrace(cfg.traceOut, prov, tr.snapshot(), prof.buckets); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "spans and layer CPU written to %s\n", cfg.traceOut)
	} else {
		names = endToEndMetrics(res.Metrics, setups, plain, rss, out)
	}
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "%-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	return res, nil
}

// add accumulates the counters' change from before to after.
func (h *hostSample) add(before, after hostSample) {
	h.cpu += after.cpu - before.cpu
	h.mem.TotalAlloc += after.mem.TotalAlloc - before.mem.TotalAlloc
	h.mem.Mallocs += after.mem.Mallocs - before.mem.Mallocs
	h.mem.NumGC += after.mem.NumGC - before.mem.NumGC
	h.mem.PauseTotalNs += after.mem.PauseTotalNs - before.mem.PauseTotalNs
}

// endToEndMetrics fills the untraced metrics and returns their names in
// report order.
func endToEndMetrics(ms map[string]metric, setups []float64, its []iterResult, rss float64, out io.Writer) []string {
	walls := make([]float64, len(its))
	var lat []float64
	for i, r := range its {
		walls[i] = r.wall.Seconds()
		lat = append(lat, r.latencies...)
	}
	// Sweeps send no requests: one iteration is what their user waits
	// on. Too few fit in a run for p99, so p99_ms is the slowest.
	if lat == nil {
		for _, w := range walls {
			lat = append(lat, 1000*w)
		}
	}
	s := summarize(lat)
	fmt.Fprintf(out, "setup_s: median of %d setups %v\n", len(setups), setups)
	fmt.Fprintf(out, "wall_s: median of %d iterations %v\n", len(walls), walls)
	fmt.Fprintf(out, "latency_ms: %s\n", s)
	ms["setup_s"] = metric{median(setups), "s"}
	ms["wall_s"] = metric{median(walls), "s"}
	ms["p50_ms"] = metric{s.p50, "ms"}
	ms["p99_ms"] = metric{s.tail, "ms"}
	ms["max_rss_mb"] = metric{rss, "MB"}
	return []string{"setup_s", "wall_s", "p50_ms", "p99_ms", "max_rss_mb"}
}

// layerMetrics fills the per-layer metrics of a traced run and returns
// their names in report order. Every value is per traced iteration:
// span times are medians, counters and profile CPU are means.
func layerMetrics(ms map[string]metric, plain, traced []iterResult, spans []span, cpu map[string]int64, host hostSample) []string {
	var names []string
	set := func(name string, v float64, unit string) {
		ms[name] = metric{v, unit}
		names = append(names, name)
	}
	n := float64(len(traced))
	roots := make([]int64, len(traced))
	var store scenario.Metrics
	var coalesced, parked, shed, errored, queuePeak, rejected, cycles, committed, ffCycles float64
	tracedWalls := make([]float64, len(traced))
	for i, r := range traced {
		roots[i] = r.root
		tracedWalls[i] = r.wall.Seconds()
		store = addStore(store, r.store)
		coalesced += float64(r.server.Coalesced)
		parked += float64(r.server.Parked)
		shed += float64(r.server.Rejected)
		errored += float64(r.server.Errored)
		queuePeak += float64(r.pool.QueuePeak)
		rejected += float64(r.pool.Rejected)
		for _, st := range r.stats {
			cycles += float64(st.Cycles)
			committed += float64(st.Committed)
			ffCycles += float64(st.FastForwardedCycles)
		}
	}
	plainWalls := make([]float64, len(plain))
	for i, r := range plain {
		plainWalls[i] = r.wall.Seconds()
	}

	for _, d := range []string{"fig4", "fig5", "fig6", "fig7", "e3", "e4", "e5", "ablation", "analytical", "dse"} {
		set("experiments."+d+"_s", median(spanSeconds(spans, roots, "experiments."+d)), "s")
	}
	cpuS := func(m string) float64 { return float64(cpu[m]) / 1e9 / n }
	set("sim.run_cpu_s", cpuS("sim.run_cpu_s"), "s")
	set("sim.cycles", cycles/n, "count")
	set("sim.committed", committed/n, "count")
	set("sim.ff_frac", ffCycles/max(cycles, 1), "fraction")
	set("mem.cpu_s", cpuS("mem.cpu_s"), "s")
	set("accel.engine_cpu_s", cpuS("accel.engine_cpu_s"), "s")
	set("workload.build_cpu_s", cpuS("workload.build_cpu_s"), "s")
	set("scenario.digest_cpu_s", cpuS("scenario.digest_cpu_s"), "s")
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"run_hits", store.RunHits}, {"run_coalesced", store.RunCoalesced},
		{"run_disk_hits", store.RunDiskHits}, {"run_misses", store.RunMisses},
		{"measure_hits", store.MeasureHits}, {"measure_disk_hits", store.MeasureDiskHits},
		{"measure_misses", store.MeasureMisses},
		{"static_hits", store.StaticHits}, {"static_misses", store.StaticMisses},
	} {
		set("scenario."+c.name, float64(c.v)/n, "count")
	}
	set("scenario.bytes_read", float64(store.BytesRead)/n, "B")
	set("scenario.bytes_written", float64(store.BytesWritten)/n, "B")
	set("scenario.dedup_ratio", store.DedupRatio(), "fraction")
	set("scenario.disk_cpu_s", cpuS("scenario.disk_cpu_s"), "s")
	set("scenario.ckpt_warmups", float64(store.CkptWarmups)/n, "count")
	set("scenario.ckpt_forks", float64(store.CkptForks)/n, "count")
	set("scenario.ckpt_disk_hits", float64(store.CkptDiskHits)/n, "count")
	set("scenario.forks_per_warmup", float64(store.CkptForks)/float64(max(store.CkptWarmups+store.CkptDiskHits, 1)), "ratio")
	set("sim.ckpt_cpu_s", cpuS("sim.ckpt_cpu_s"), "s")
	set("staticmodel.cpu_s", cpuS("staticmodel.cpu_s"), "s")
	set("runner.queue_peak", queuePeak/n, "count")
	set("runner.rejected", rejected/n, "count")
	for _, ep := range []string{"run", "measure", "static"} {
		set("serve."+ep+"_p50_ms", 1000*median(spanDurations(spans, "serve."+ep)), "ms")
	}
	set("serve.http_cpu_s", cpuS("serve.http_cpu_s"), "s")
	set("serve.coalesced", coalesced/n, "count")
	set("serve.parked", parked/n, "count")
	set("serve.shed", shed/n, "count")
	set("serve.errored", errored/n, "count")
	set("host.cpu_s", host.cpu.Seconds()/n, "s")
	set("host.alloc_mb", float64(host.mem.TotalAlloc)/(1<<20)/n, "MB")
	set("host.mallocs", float64(host.mem.Mallocs)/n, "count")
	set("host.gc_cycles", float64(host.mem.NumGC)/n, "count")
	set("host.gc_pause_ms", float64(host.mem.PauseTotalNs)/1e6/n, "ms")
	set("trace.overhead_frac", median(tracedWalls)/median(plainWalls)-1, "fraction")
	return names
}

// spanDurations returns the durations in seconds of every span named
// name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// addStore sums two store snapshots field by field: scenario.Metrics has
// Sub, and a + b = a - (0 - b).
func addStore(a, b scenario.Metrics) scenario.Metrics {
	return a.Sub(scenario.Metrics{}.Sub(b))
}

// canonicalJSON encodes v so that equal values give equal bytes: object
// keys sorted, and empty arrays written as null, since a result that
// crossed the wire may carry either for an empty slice.
func canonicalJSON(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var tree any
	if err := json.Unmarshal(data, &tree); err != nil {
		return nil, err
	}
	return json.Marshal(nullEmpty(tree))
}

func nullEmpty(v any) any {
	switch t := v.(type) {
	case []any:
		if len(t) == 0 {
			return nil
		}
		for i := range t {
			t[i] = nullEmpty(t[i])
		}
	case map[string]any:
		for k := range t {
			t[k] = nullEmpty(t[k])
		}
	}
	return v
}

// provenance identifies what was measured, on what.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
}

func (p provenance) String() string {
	b, _ := json.Marshal(p) // a struct of plain fields always encodes
	return string(b)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
