// Package loadgen drives a scenariod daemon the way a fleet of sweep
// clients would, and measures what the service layer buys. It runs
// three phases — duplicate-heavy (many clients, few distinct specs:
// the coalescing case), checkpoint-share (distinct specs in one warmup
// family: the checkpoint-sharing case, one warmup forked for every
// member), and cold-miss (every request distinct: the overhead floor) —
// and can replay the duplicate-heavy mix as per-client direct execution
// (no daemon, no shared store) for an aggregate-throughput comparison.
//
// Wall-clock readings here are observability, never simulation inputs:
// every result still comes out of the deterministic scenario layer.
package loadgen

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/accel"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options configures one load run.
type Options struct {
	// Client talks to the daemon under load.
	Client *client.Client
	// Clients is the number of concurrent submitting goroutines
	// (<= 0 selects 8).
	Clients int
	// Requests is the total request count per phase (<= 0 selects 96).
	Requests int
	// Distinct is the number of distinct specs in the duplicate-heavy
	// mix (<= 0 selects 2). Requests/Distinct is the duplication factor.
	Distinct int
	// Seed offsets every workload seed, so two runs against one daemon
	// can be made cache-cold relative to each other.
	Seed int64
	// Quick shrinks workload sizes for smoke tests and CI.
	Quick bool
	// Compare replays the duplicate-heavy mix as per-client direct
	// execution (nil store, no daemon) and reports the aggregate
	// throughput ratio.
	Compare bool
}

func (o Options) clients() int {
	if o.Clients <= 0 {
		return 8
	}
	return o.Clients
}

func (o Options) requests() int {
	if o.Requests <= 0 {
		return 96
	}
	return o.Requests
}

func (o Options) distinct() int {
	if o.Distinct <= 0 {
		return 2
	}
	return o.Distinct
}

// Percentiles summarizes a phase's request latencies.
type Percentiles struct {
	P50, P90, P99 time.Duration
}

// Phase is the measured outcome of one load phase.
type Phase struct {
	Name     string
	Requests int
	// Errors counts failed requests; Shed counts HTTP 503 backpressure
	// rejections that were retried (and are not errors); Coalesced
	// counts requests that joined another client's in-flight run or
	// measure, from the store delta.
	Errors    int
	Shed      int
	Coalesced int
	Duration  time.Duration
	// Throughput is aggregate requests per second across all clients.
	Throughput float64
	Latency    Percentiles
	// Store is the daemon store's activity during this phase
	// (post-phase snapshot minus pre-phase snapshot).
	Store scenario.Metrics
}

// Report is the full load-run outcome.
type Report struct {
	Phases []Phase
	// Direct is the wall time of the duplicate-heavy mix executed
	// per-client with no daemon and no shared store (zero when Compare
	// was off); DupServer is the same mix through the daemon.
	Direct    time.Duration
	DupServer time.Duration
	// Speedup is aggregate server throughput over direct throughput on
	// the duplicate-heavy mix.
	Speedup float64
}

// synthCfg sizes the synthetic workload so one simulation costs enough
// to make deduplication visible over HTTP round-trip overhead.
func (o Options) synthCfg(regions int, seed int64) workload.SyntheticConfig {
	units, unitLen := 2000, 40
	if o.Quick {
		units, unitLen = 500, 25
	}
	return workload.SyntheticConfig{
		Units:        units,
		UnitLen:      unitLen,
		Regions:      regions,
		RegionLen:    60,
		AccelLatency: 12,
		Seed:         seed,
	}
}

// dupMix is the duplicate-heavy phase: Requests submissions cycling
// over Distinct specs, so Requests/Distinct clients race for each
// digest.
func (o Options) dupMix() []serve.RunRequest {
	reqs := make([]serve.RunRequest, o.requests())
	for i := range reqs {
		k := i % o.distinct()
		cfg := o.synthCfg(40+20*k, o.Seed+int64(k))
		reqs[i] = serve.RunRequest{
			Config:   sim.HighPerfConfig(),
			Workload: serve.WorkloadSpec{Kind: "synthetic", Synthetic: &cfg},
		}
	}
	return reqs
}

// ckptMix is the checkpoint-share phase: one heap workload with a long
// scalar warmup, swept across the four integration modes. The four
// digests are distinct but share one warmup family, so the daemon
// warms the checkpoint once and forks it for the rest.
func (o Options) ckptMix() []serve.RunRequest {
	ops, warm := 600, 30000
	if o.Quick {
		ops, warm = 200, 12000
	}
	hcfg := workload.HeapConfig{
		Operations:    ops,
		FillerPerCall: 40,
		Prefill:       512,
		Seed:          o.Seed + 7,
		WarmupFiller:  warm,
	}
	reqs := make([]serve.RunRequest, o.requests())
	for i := range reqs {
		cfg := sim.HighPerfConfig()
		cfg.Mode = accel.AllModes[i%len(accel.AllModes)]
		reqs[i] = serve.RunRequest{
			Config:   cfg,
			Workload: serve.WorkloadSpec{Kind: "heap", Heap: &hcfg},
		}
	}
	return reqs
}

// coldMix is the overhead floor: every request a distinct seed, so
// nothing coalesces and nothing hits (against a fresh daemon).
func (o Options) coldMix() []serve.RunRequest {
	n := o.requests() / 4
	if n < o.clients() {
		n = o.clients()
	}
	reqs := make([]serve.RunRequest, n)
	for i := range reqs {
		cfg := o.synthCfg(40, o.Seed+1000+int64(i))
		reqs[i] = serve.RunRequest{
			Config:   sim.HighPerfConfig(),
			Workload: serve.WorkloadSpec{Kind: "synthetic", Synthetic: &cfg},
		}
	}
	return reqs
}

// Run executes the load phases against opts.Client and returns the
// report. Phases run in order: duplicate-heavy, checkpoint-share,
// cold-miss, then (with Compare) the local direct replay.
func Run(ctx context.Context, opts Options) (*Report, error) {
	if opts.Client == nil {
		return nil, fmt.Errorf("loadgen: no client")
	}
	if err := opts.Client.Health(ctx); err != nil {
		return nil, fmt.Errorf("loadgen: daemon not healthy: %w", err)
	}
	rep := &Report{}
	for _, ph := range []struct {
		name string
		mix  []serve.RunRequest
	}{
		{"duplicate-heavy", opts.dupMix()},
		{"checkpoint-share", opts.ckptMix()},
		{"cold-miss", opts.coldMix()},
	} {
		p, err := opts.runPhase(ctx, ph.name, ph.mix)
		if err != nil {
			return nil, err
		}
		rep.Phases = append(rep.Phases, p)
		if ph.name == "duplicate-heavy" {
			rep.DupServer = p.Duration
		}
	}
	if opts.Compare {
		d, err := opts.runDirect(ctx, opts.dupMix())
		if err != nil {
			return nil, err
		}
		rep.Direct = d
		if rep.DupServer > 0 {
			rep.Speedup = float64(d) / float64(rep.DupServer)
		}
	}
	return rep, nil
}

// runPhase fans the mix out over the client goroutines (round-robin,
// each client submitting its share sequentially) and aggregates
// latency, error, and coalescing counts plus the store delta.
func (o Options) runPhase(ctx context.Context, name string, mix []serve.RunRequest) (Phase, error) {
	before, err := o.Client.Metrics(ctx)
	if err != nil {
		return Phase{}, fmt.Errorf("loadgen: %s: %w", name, err)
	}

	nc := o.clients()
	type outcome struct {
		latency time.Duration
		shed    int
		err     error
	}
	outcomes := make([]outcome, len(mix))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(mix); i += nc {
				t0 := time.Now()
				var oc outcome
				// A 503 is the daemon's gate refusing a miss — expected
				// under burst, so back off briefly and resubmit
				// (bounded: a daemon that never admits is an error).
				for attempt := 0; ; attempt++ {
					_, err := o.Client.Run(ctx, mix[i])
					if err != nil && client.IsQueueFull(err) && attempt < 500 && ctx.Err() == nil {
						oc.shed++
						time.Sleep(2 * time.Millisecond)
						continue
					}
					oc.latency, oc.err = time.Since(t0), err
					break
				}
				outcomes[i] = oc
			}
		}(c)
	}
	wg.Wait()
	dur := time.Since(start)

	after, err := o.Client.Metrics(ctx)
	if err != nil {
		return Phase{}, fmt.Errorf("loadgen: %s: %w", name, err)
	}

	d := after.Store.Sub(before.Store)
	p := Phase{Name: name, Requests: len(mix), Duration: dur, Store: d, Coalesced: int(d.RunCoalesced + d.MeasureCoalesced)}
	lat := make([]time.Duration, 0, len(mix))
	for _, oc := range outcomes {
		p.Shed += oc.shed
		if oc.err != nil {
			p.Errors++
			continue
		}
		lat = append(lat, oc.latency)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p.Latency = Percentiles{P50: pct(lat, 0.50), P90: pct(lat, 0.90), P99: pct(lat, 0.99)}
	if dur > 0 {
		p.Throughput = float64(len(mix)) / dur.Seconds()
	}
	return p, nil
}

// runDirect replays the mix with the same client fan-out but no daemon
// and no shared store: each request builds its workload and simulates
// locally, exactly what a fleet without the service layer would do.
func (o Options) runDirect(ctx context.Context, mix []serve.RunRequest) (time.Duration, error) {
	specs := make([]scenario.Spec, len(mix))
	for i, req := range mix {
		wl, err := req.Workload.Build()
		if err != nil {
			return 0, fmt.Errorf("loadgen: direct: %w", err)
		}
		specs[i] = scenario.Spec{
			Config:    req.Config,
			Program:   wl.Accelerated,
			NewDevice: wl.NewDevice,
			DeviceKey: wl.DeviceKey,
			MaxCycles: serve.DefaultMaxCycles,
		}
	}
	nc := o.clients()
	errs := make([]error, nc)
	var noStore *scenario.Store
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(specs); i += nc {
				if ctx.Err() != nil {
					errs[c] = ctx.Err()
					return
				}
				if _, err := noStore.RunStats(specs[i]); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	dur := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("loadgen: direct: %w", err)
		}
	}
	return dur, nil
}

// pct reads the q-quantile from an ascending-sorted latency slice.
func pct(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[i]
}

// String renders the report as the scenarioload CLI prints it.
func (r *Report) String() string {
	var b strings.Builder
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "%-17s %4d req  %6.1f req/s  p50 %-9s p90 %-9s p99 %-9s coalesced %d  shed %d  errors %d\n",
			p.Name, p.Requests, p.Throughput,
			p.Latency.P50.Round(time.Microsecond),
			p.Latency.P90.Round(time.Microsecond),
			p.Latency.P99.Round(time.Microsecond),
			p.Coalesced, p.Shed, p.Errors)
		fmt.Fprintf(&b, "%-17s store: %d run hits, %d coalesced, %d disk, %d misses | ckpt %d forks, %d warmups\n",
			"", p.Store.RunHits, p.Store.RunCoalesced, p.Store.RunDiskHits, p.Store.RunMisses,
			p.Store.CkptForks, p.Store.CkptWarmups)
	}
	if r.Direct > 0 {
		fmt.Fprintf(&b, "duplicate-heavy mix: daemon %s vs direct %s — %.1fx aggregate throughput\n",
			r.DupServer.Round(time.Millisecond), r.Direct.Round(time.Millisecond), r.Speedup)
	}
	return b.String()
}
