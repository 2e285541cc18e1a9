package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/accel"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fleetClients is the number of closed-loop clients: sweep clients wait
// for each reply before sending the next request.
const fleetClients = 2

// fleetReq is one request of the fleet stream.
type fleetReq struct {
	endpoint string // "run", "measure" or "static"
	config   sim.Config
	spec     serve.WorkloadSpec
}

// key names the result the request asks for: equal keys must get equal
// replies. Runs always name the accelerated program.
func (r fleetReq) key(w *workload.Workload) string {
	if r.endpoint == "run" {
		return "run:" + runSpec(r.config, w).Digest().String()
	}
	return r.endpoint + ":" + measureSpec(r.config, w).Digest().String()
}

func runSpec(cfg sim.Config, w *workload.Workload) scenario.Spec {
	return scenario.Spec{
		Config:    cfg,
		Program:   w.Accelerated,
		NewDevice: w.NewDevice,
		DeviceKey: w.DeviceKey,
		MaxCycles: serve.DefaultMaxCycles,
	}
}

func measureSpec(cfg sim.Config, w *workload.Workload) scenario.MeasureSpec {
	return scenario.MeasureSpec{Config: cfg, Workload: w, MaxCycles: serve.DefaultMaxCycles}
}

// segment is one stretch of the stream. In a barrier segment both
// clients start together and walk the same sweep in step, so a point's
// first request from one client coalesces with the other's.
type segment struct {
	barrier bool
	reqs    [fleetClients][]fleetReq
}

// fleetKinds builds one quick-size spec per wire kind, seeded from rng.
// Sizes keep one simulation near the cost of a quick figure point.
func fleetKinds(rng *rand.Rand, tiny bool) []serve.WorkloadSpec {
	scale := 1
	if tiny {
		scale = 4
	}
	seed := func() int64 { return rng.Int63n(1 << 30) }
	mt := workload.DefaultMultiTCA()
	mt.Calls, mt.FillerPerCall, mt.Seed = 60/scale, 50, seed()
	return []serve.WorkloadSpec{
		{Kind: "synthetic", Synthetic: &workload.SyntheticConfig{
			Units: 500 / scale, UnitLen: 25, Regions: 40 / scale, RegionLen: 60, AccelLatency: 12, Seed: seed()}},
		{Kind: "heap", Heap: &workload.HeapConfig{
			Operations: 200 / scale, FillerPerCall: 40, Prefill: 512, Seed: seed()}},
		{Kind: "matmul", MatMul: &workload.MatMulConfig{N: 16, Block: 8, Tile: 4, Seed: seed()}},
		{Kind: "kvstore", KVStore: &workload.KVStoreConfig{
			Operations: 200 / scale, FillerPerOp: 20, Buckets: 256, Keys: 128, LookupPct: 70, KeyWords: 4, Seed: seed()}},
		{Kind: "stringmatch", StringMatch: &workload.StringMatchConfig{
			Comparisons: 200 / scale, FillerPerOp: 20, Dictionary: 32, MinWords: 4, MaxWords: 24, SharedPrefix: 3, Seed: seed()}},
		{Kind: "regexmatch", RegexMatch: &workload.RegexMatchConfig{
			Pattern: "[ab]*abb", Matches: 100 / scale, FillerPerOp: 20, Inputs: 32, MaxLen: 28, Seed: seed()}},
		{Kind: "multitca", MultiTCA: &mt},
		{Kind: "daestream", DAEStream: &workload.DAEStreamConfig{
			Streams: 6, WordsPerStream: 16, FillerPerOp: 30, ChunkWords: 8, ComputePerChunk: 4, Startup: 40, Seed: seed()}},
		{Kind: "loopnest", LoopNest: &workload.LoopNestConfig{
			Calls: 6, FillerPerOp: 25, Trips: 8, Depth: 2, IterLatency: 1, ConfigLatency: 20, Seed: seed()}},
	}
}

// fleetStream builds the seeded request stream one iteration drains.
// Barrier segments walk shared sweeps: a heap warmup family across the
// four modes (the second client starts one mode ahead, so it parks
// behind the first client's warmup, then the checkpoint forks), then a
// run, a static and a measure sweep over every wire kind (first
// requests coalesce). Between them each client repeats points already
// seen (memory hits) and sends a few first-time points of its own
// (misses that simulate and write blobs).
func fleetStream(seed int64, tiny bool) []segment {
	rng := rand.New(rand.NewSource(seed))
	repeats, fresh := []int{60, 100, 140, 200}, 2
	if tiny {
		repeats, fresh = []int{6, 10, 14, 20}, 1
	}
	kinds := fleetKinds(rng, tiny)
	hp := sim.HighPerfConfig()

	famSpec := serve.WorkloadSpec{Kind: "heap", Heap: &workload.HeapConfig{
		Operations: 200, FillerPerCall: 40, Prefill: 512, Seed: rng.Int63n(1 << 30), WarmupFiller: 12_000}}
	var family []fleetReq
	for _, m := range accel.AllModes {
		cfg := hp
		cfg.Mode = m
		family = append(family, fleetReq{endpoint: "run", config: cfg, spec: famSpec})
	}
	sweepOf := func(endpoint string) []fleetReq {
		out := make([]fleetReq, len(kinds))
		for i, k := range rng.Perm(len(kinds)) {
			out[i] = fleetReq{endpoint: endpoint, config: hp, spec: kinds[k]}
		}
		return out
	}
	// freshPoint is a first-time point no other request names: the next
	// wire kind in turn, with new seeds, so every seed draws the same mix
	// of simulation costs.
	nextKind := 0
	freshPoint := func() fleetReq {
		spec := fleetKinds(rng, tiny)[nextKind%len(kinds)]
		nextKind++
		return fleetReq{endpoint: "run", config: hp, spec: spec}
	}

	var stream []segment
	var seen []fleetReq
	shared := func(a, b []fleetReq) {
		stream = append(stream, segment{barrier: true, reqs: [fleetClients][]fleetReq{a, b}})
		seen = append(seen, a...)
	}
	private := func(n, nfresh int) {
		var seg segment
		for c := range seg.reqs {
			for i := 0; i < n; i++ {
				seg.reqs[c] = append(seg.reqs[c], seen[rng.Intn(len(seen))])
			}
			for i := 0; i < nfresh; i++ {
				at := rng.Intn(len(seg.reqs[c]) + 1)
				seg.reqs[c] = append(seg.reqs[c][:at], append([]fleetReq{freshPoint()}, seg.reqs[c][at:]...)...)
			}
		}
		stream = append(stream, seg)
	}
	shared(family, append(family[1:len(family):len(family)], family[0]))
	private(repeats[0], 0)
	runs := sweepOf("run")
	shared(runs, runs)
	private(repeats[1], fresh)
	statics := sweepOf("static")
	shared(statics, statics)
	private(repeats[2], fresh)
	measures := sweepOf("measure")
	shared(measures, measures)
	private(repeats[3], fresh)
	return stream
}

// fleet is the scenariod workload: an in-process daemon on loopback,
// disk-backed in an empty directory, drained by two closed-loop clients.
type fleet struct {
	cfg    config
	stream []segment

	// built holds every distinct workload of the stream, keyed by its
	// canonical spec JSON, for computing expected digests.
	built map[string]*workload.Workload
	// replies holds the canonical JSON of the first reply per result
	// key; every later reply for the key, in any iteration, must match.
	replies map[string][]byte
	// samples are the points re-run directly after the timed phase: one
	// per (wire kind, endpoint).
	samples []fleetReq
}

func newFleet(cfg config) *fleet { return &fleet{cfg: cfg, replies: make(map[string][]byte)} }

func (f *fleet) setupReps() int {
	if f.cfg.tiny {
		return 1
	}
	return 15
}

// setup generates the seeded stream and builds each distinct workload
// it names, so digests of expected results are known before any reply.
func (f *fleet) setup() error {
	f.stream = fleetStream(f.cfg.seed, f.cfg.tiny)
	f.built = make(map[string]*workload.Workload)
	f.samples = f.samples[:0]
	sampled := make(map[string]bool)
	for _, seg := range f.stream {
		for _, reqs := range seg.reqs {
			for _, r := range reqs {
				if _, err := f.workload(r.spec); err != nil {
					return err
				}
				if s := r.spec.Kind + "/" + r.endpoint; !sampled[s] {
					sampled[s] = true
					f.samples = append(f.samples, r)
				}
			}
		}
	}
	return nil
}

// workload returns the built workload for spec, building it once.
func (f *fleet) workload(spec serve.WorkloadSpec) (*workload.Workload, error) {
	k, err := canonicalJSON(spec)
	if err != nil {
		return nil, err
	}
	if w, ok := f.built[string(k)]; ok {
		return w, nil
	}
	w, err := spec.Build()
	if err != nil {
		return nil, fmt.Errorf("fleet stream: %s: %w", spec.Kind, err)
	}
	f.built[string(k)] = w
	return w, nil
}

// outcome is one request's reply as one client saw it.
type outcome struct {
	req     fleetReq
	latency time.Duration
	err     error
	payload any // the reply's result: sim.Stats, MeasureRecord or Prediction
	digest  string
}

// iterate starts a fresh daemon on an empty store directory and times
// the two clients draining the stream; the daemon's start and stop are
// outside the timed phase.
func (f *fleet) iterate(tr *tracer) (iterResult, error) {
	dir, err := os.MkdirTemp(f.cfg.dir, "fleet-*")
	if err != nil {
		return iterResult{}, err
	}
	defer os.RemoveAll(dir)
	store, err := scenario.NewStore(dir)
	if err != nil {
		return iterResult{}, err
	}
	srv, err := serve.New(serve.Options{Store: store})
	if err != nil {
		return iterResult{}, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return iterResult{}, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := &http.Transport{MaxIdleConnsPerHost: fleetClients}
	cl := &client.Client{BaseURL: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: transport}}
	defer func() {
		transport.CloseIdleConnections()
		hs.Close()
		<-served
	}()

	barriers := make([]sync.WaitGroup, len(f.stream))
	for i := range barriers {
		barriers[i].Add(fleetClients)
	}
	logs := make([][]outcome, fleetClients)
	var wg sync.WaitGroup
	root := tr.begin("iteration", 0)
	t0 := time.Now()
	for c := 0; c < fleetClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			logs[c] = f.drive(cl, c, barriers, tr, root.ID)
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	root.end()

	snap := srv.Metrics()
	res := iterResult{root: root.ID, wall: wall, store: snap.Store, server: snap.Server, pool: snap.Pool}
	distinct := make(map[string]bool)
	for _, log := range logs {
		for _, o := range log {
			res.attempted++
			res.latencies = append(res.latencies, float64(o.latency)/float64(time.Millisecond))
			if o.err != nil {
				res.wrong("%s %s: %v", o.req.endpoint, o.req.spec.Kind, o.err)
				continue
			}
			if err := f.check(o); err != nil {
				res.wrong("%v", err)
				continue
			}
			if st, ok := o.payload.(sim.Stats); ok && !distinct[o.digest] {
				distinct[o.digest] = true
				res.stats = append(res.stats, st)
			}
		}
	}
	m, s := snap.Store, snap.Server
	if m.RunMisses+m.MeasureMisses == 0 || s.Coalesced == 0 || m.CkptForks == 0 || m.StaticHits == 0 {
		res.unexpected("fleet: %d run + %d measure misses, %d coalesced joins, %d forks, %d static hits; want each > 0",
			m.RunMisses, m.MeasureMisses, s.Coalesced, m.CkptForks, m.StaticHits)
	}
	return res, nil
}

// drive walks one client's share of the stream, closed loop.
func (f *fleet) drive(cl *client.Client, c int, barriers []sync.WaitGroup, tr *tracer, root int64) []outcome {
	ctx := context.Background()
	var log []outcome
	for i, seg := range f.stream {
		if seg.barrier {
			barriers[i].Done()
			barriers[i].Wait()
		}
		for _, r := range seg.reqs[c] {
			o := outcome{req: r}
			sp := tr.begin("serve."+r.endpoint, root)
			t0 := time.Now()
			switch r.endpoint {
			case "run":
				var resp serve.RunResponse
				resp, o.err = cl.Run(ctx, serve.RunRequest{Config: r.config, Workload: r.spec})
				o.payload, o.digest = resp.Stats, resp.Digest
			case "measure":
				var resp serve.MeasureResponse
				resp, o.err = cl.Measure(ctx, serve.MeasureRequest{Config: r.config, Workload: r.spec})
				o.payload, o.digest = resp.Record, resp.Digest
			case "static":
				var resp serve.StaticResponse
				resp, o.err = cl.Static(ctx, serve.StaticRequest{Config: r.config, Workload: r.spec})
				o.payload, o.digest = resp.Prediction, resp.Digest
			}
			o.latency = time.Since(t0)
			sp.end()
			log = append(log, o)
		}
	}
	return log
}

// check compares a reply with the expected digest and with every earlier
// reply for the same result.
func (f *fleet) check(o outcome) error {
	w, err := f.workload(o.req.spec)
	if err != nil {
		return err
	}
	key := o.req.key(w)
	if want := key[len(o.req.endpoint)+1:]; o.digest != want {
		return fmt.Errorf("%s %s: reply digest %.12s, want %.12s", o.req.endpoint, o.req.spec.Kind, o.digest, want)
	}
	got, err := canonicalJSON(o.payload)
	if err != nil {
		return err
	}
	if prev, ok := f.replies[key]; !ok {
		f.replies[key] = got
	} else if !bytes.Equal(got, prev) {
		return fmt.Errorf("%s %s: replies for digest %.12s disagree", o.req.endpoint, o.req.spec.Kind, o.digest)
	}
	return nil
}

// verify re-runs one sampled point per wire kind and endpoint directly,
// with no store and no daemon, and counts each that differs from the
// daemon's reply as failed.
func (f *fleet) verify() (int, error) {
	failed := 0
	for _, r := range f.samples {
		w, err := f.workload(r.spec)
		if err != nil {
			return 0, err
		}
		var direct any
		switch r.endpoint {
		case "run":
			direct, err = (*scenario.Store)(nil).RunStats(runSpec(r.config, w))
		case "measure":
			var res *experiments.WorkloadResult
			if res, err = experiments.MeasureWorkloadStore(nil, r.config, w, 1); err == nil {
				direct = res.MeasureRecord
			}
		case "static":
			direct, err = experiments.StaticPredictWorkloadStore(nil, r.config, w)
		}
		if err != nil {
			return 0, fmt.Errorf("direct %s %s: %w", r.endpoint, r.spec.Kind, err)
		}
		want, err := canonicalJSON(direct)
		if err != nil {
			return 0, err
		}
		got, ok := f.replies[r.key(w)]
		if !ok {
			return 0, errors.New("fleet: a sampled point got no reply")
		}
		if !bytes.Equal(got, want) {
			failed++
		}
	}
	return failed, nil
}

func (f *fleet) close() {}
