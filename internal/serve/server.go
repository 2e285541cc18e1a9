package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options configures a Server.
type Options struct {
	// Store backs every simulation; nil creates a fresh memory-only
	// store. One store per daemon is the whole point: every client
	// shares its memory cache, disk blobs, singleflight, and warm
	// checkpoints.
	Store *scenario.Store
	// Workers sizes the execution pool (<= 0 selects GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (<= 0 selects 4x workers).
	// A full queue rejects with HTTP 503 — backpressure, not buffering.
	QueueDepth int
}

// Server coalesces, schedules, and executes scenario submissions. Its
// handler is safe for arbitrary concurrency; every mutable structure
// is either lock-guarded or atomic.
type Server struct {
	store *scenario.Store
	pool  *runner.Pool

	mu sync.Mutex
	// calls coalesces identical in-flight requests across clients: one
	// entry per (kind, digest) currently queued or executing. Completed
	// calls leave the map — later duplicates become store memory hits.
	calls map[string]*call
	// families implements warmup batching (see admit).
	families map[scenario.Digest]*family

	// workloads memoizes built workloads by canonical spec so duplicate
	// submissions share one *workload.Workload: a repeat skips the
	// rebuild, and its programs' memoized digests are already taken.
	// It grows with the number of *distinct* specs the daemon has seen,
	// like the store's memory levels, and nothing evicts from it.
	wlMu      sync.Mutex
	workloads map[string]*wlEntry

	reqRun     atomic.Int64
	reqMeasure atomic.Int64
	reqStatic  atomic.Int64
	coalesced  atomic.Int64
	rejected   atomic.Int64
	abandoned  atomic.Int64
	parked     atomic.Int64
	errored    atomic.Int64
}

// call is one scheduled unit of work and the clients waiting on it.
type call struct {
	key string
	// fam/hasFam tie the call to a warmup family for batching.
	fam    scenario.Digest
	hasFam bool

	done chan struct{}

	// waiters and abandoned are guarded by the server mutex. A call
	// whose last waiter leaves before execution starts is abandoned:
	// the worker (or Close) completes it without simulating. A new
	// duplicate arriving before then revives it.
	waiters   int
	abandoned bool
	started   bool

	// Result fields are written once, before done closes.
	stats sim.Stats
	rec   scenario.MeasureRecord
	err   error
}

// family tracks warmup-batching state for one checkpoint family.
type family struct {
	// ready flips when the family's first job has completed (and with
	// it the shared warm checkpoint, or the knowledge that none is
	// possible). Until then followers park in pending.
	ready   bool
	warming bool
	pending []parkedJob
}

type parkedJob struct {
	priority int
	job      runner.PoolJob
}

// New builds a Server and starts its worker pool.
func New(opts Options) (*Server, error) {
	store := opts.Store
	if store == nil {
		var err error
		store, err = scenario.NewStore("")
		if err != nil {
			return nil, err
		}
	}
	return &Server{
		store:     store,
		pool:      runner.NewPool(opts.Workers, opts.QueueDepth),
		calls:     make(map[string]*call),
		families:  make(map[scenario.Digest]*family),
		workloads: make(map[string]*wlEntry),
	}, nil
}

// Store exposes the daemon's shared store (for /metrics and tests).
func (s *Server) Store() *scenario.Store { return s.store }

// Close drains the pool. Queued-but-unstarted jobs complete with an
// error; in-flight simulations finish.
func (s *Server) Close() {
	s.pool.Close()
	// Parked jobs never reached the pool; fail them too.
	s.mu.Lock()
	fams := make([]scenario.Digest, 0, len(s.families))
	for d := range s.families {
		fams = append(fams, d)
	}
	sort.Slice(fams, func(i, j int) bool { return bytes.Compare(fams[i][:], fams[j][:]) < 0 })
	var pending []parkedJob
	for _, d := range fams {
		f := s.families[d]
		pending = append(pending, f.pending...)
		f.pending = nil
		f.ready = true
	}
	s.mu.Unlock()
	for _, pj := range pending {
		pj.job(true)
	}
}

// errShutdown completes calls that were cancelled by Close.
var errShutdown = errors.New("serve: server shutting down")

// admit coalesces the request onto an existing in-flight call or
// creates, gates, and enqueues a new one. run executes the work and
// must fill the call's result fields. The returned joined flag reports
// coalescing (for the response and the metrics).
func (s *Server) admit(key string, priority int, fam scenario.Digest, hasFam bool, run func(c *call)) (*call, bool, error) {
	s.mu.Lock()
	if c, ok := s.calls[key]; ok {
		c.waiters++
		// Revive a call whose previous waiters all left before it ran:
		// it is still scheduled, and now wanted again.
		c.abandoned = false
		s.mu.Unlock()
		s.coalesced.Add(1)
		return c, true, nil
	}
	c := &call{key: key, fam: fam, hasFam: hasFam, done: make(chan struct{}), waiters: 1}
	s.calls[key] = c
	job := func(cancelled bool) {
		if cancelled {
			s.finish(c, func() { c.err = errShutdown })
			return
		}
		s.mu.Lock()
		if c.abandoned {
			// Out of the map under the lock that decided the skip, so a
			// duplicate arriving now starts a fresh call instead of
			// joining this one and inheriting its context.Canceled.
			delete(s.calls, key)
			s.mu.Unlock()
			s.finish(c, func() { c.err = context.Canceled })
			return
		}
		c.started = true
		s.mu.Unlock()
		s.finish(c, func() {
			run(c)
			if c.err != nil {
				s.errored.Add(1)
			}
		})
	}

	// Warmup-family batching: the first job of a cold family goes
	// through and produces the shared checkpoint; followers park here
	// instead of occupying workers that would all block on the same
	// singleflighted warmup. They flush the moment the leader finishes.
	// A store with forking disabled reports no families, so nothing
	// parks behind a checkpoint that will never exist.
	if hasFam {
		f := s.families[fam]
		if f == nil {
			f = &family{}
			s.families[fam] = f
		}
		if f.warming && !f.ready {
			f.pending = append(f.pending, parkedJob{priority: priority, job: job})
			s.mu.Unlock()
			s.parked.Add(1)
			return c, false, nil
		}
		f.warming = true
	}
	s.mu.Unlock()

	if err := s.pool.Submit(priority, job); err != nil {
		// Complete the call with the rejection: that releases any
		// duplicate that joined it since the unlock, and flushes the
		// family it may lead, which would otherwise park every later
		// member for good.
		s.rejected.Add(1)
		s.finish(c, func() { c.err = err })
		return nil, false, err
	}
	return c, false, nil
}

// finish publishes a call's result: run the fill closure, take the
// call out of the coalescing map unless a fresh call under its key has
// replaced it, release waiters, and flush any jobs parked on its warmup
// family.
func (s *Server) finish(c *call, fill func()) {
	fill()
	s.mu.Lock()
	if s.calls[c.key] == c {
		delete(s.calls, c.key)
	}
	var flush []parkedJob
	if c.hasFam {
		if f := s.families[c.fam]; f != nil && !f.ready {
			f.ready = true
			flush = f.pending
			f.pending = nil
		}
	}
	s.mu.Unlock()
	close(c.done)
	for _, pj := range flush {
		if err := s.pool.SubmitAdmitted(pj.priority, pj.job); err != nil {
			// Pool closed mid-flush: complete the job as cancelled.
			pj.job(true)
		}
	}
}

// leave drops one waiter from a call after its client gave up. If that
// was the last waiter and the work has not started, the call is marked
// abandoned so the worker can skip the simulation.
func (s *Server) leave(c *call) {
	s.mu.Lock()
	c.waiters--
	if c.waiters <= 0 && !c.started {
		c.abandoned = true
		s.abandoned.Add(1)
	}
	s.mu.Unlock()
}

// await blocks until the call completes or the request context ends.
func (s *Server) await(ctx context.Context, c *call) error {
	select {
	case <-c.done:
		return nil
	case <-ctx.Done():
		s.leave(c)
		return ctx.Err()
	}
}

type wlEntry struct {
	once sync.Once
	w    *workload.Workload
	err  error
}

// buildWorkload returns the canonical built workload for a spec,
// building each distinct spec exactly once per server. The key
// re-marshals the parsed struct (not the request's raw bytes), which
// normalizes field order and whitespace: every spelling of the same
// spec shares one built workload, so it is built and its programs
// digested once. A program's memoized digests live in the program
// itself, so this map only saves rebuilds; dropping an entry would let
// its workload be collected.
func (s *Server) buildWorkload(ws WorkloadSpec) (*workload.Workload, error) {
	b, err := json.Marshal(ws)
	if err != nil {
		return nil, fmt.Errorf("serve: workload spec: %w", err)
	}
	key := string(b)
	s.wlMu.Lock()
	e, ok := s.workloads[key]
	if !ok {
		e = &wlEntry{}
		s.workloads[key] = e
	}
	s.wlMu.Unlock()
	e.once.Do(func() {
		e.w, e.err = ws.Build()
	})
	return e.w, e.err
}

// Handler returns the daemon's HTTP mux:
//
//	POST /v1/run     — one simulator run        (RunRequest → RunResponse)
//	POST /v1/measure — one measure evaluation   (MeasureRequest → MeasureResponse)
//	POST /v1/static  — one static prediction    (StaticRequest → StaticResponse)
//	GET  /metrics    — MetricsSnapshot
//	GET  /healthz    — 200 "ok"
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/measure", s.handleMeasure)
	mux.HandleFunc("/v1/static", s.handleStatic)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// maxRequestBytes caps a request body. The largest legitimate request,
// a measure spec with a full core config, is a few kilobytes; the cap
// keeps one client from making the daemon buffer an unbounded body.
const maxRequestBytes = 1 << 20

// decodePost parses a JSON POST body, rejecting other methods, bodies
// over maxRequestBytes (413) and unknown fields (a typoed field silently
// changing the sweep would be worse than an error).
func decodePost[T any](w http.ResponseWriter, r *http.Request, dst *T) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: %s needs POST", r.URL.Path))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("serve: request body over %d bytes", tooBig.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad request: %w", err))
		return false
	}
	return true
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !decodePost(w, r, &req) {
		return
	}
	s.reqRun.Add(1)

	wl, err := s.buildWorkload(req.Workload)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec := scenario.Spec{
		Config:    req.Config,
		MaxCycles: req.MaxCycles,
	}
	if spec.MaxCycles == 0 {
		spec.MaxCycles = DefaultMaxCycles
	}
	switch req.Program {
	case "", "accelerated":
		spec.Program = wl.Accelerated
		spec.NewDevice = wl.NewDevice
		spec.DeviceKey = wl.DeviceKey
	case "baseline":
		spec.Program = wl.Baseline
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: unknown program %q", req.Program))
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	digest := spec.Digest().String()
	fam, hasFam := s.store.WarmupFamily(spec)
	c, joined, err := s.admit("run:"+digest, req.Priority, fam, hasFam, func(c *call) {
		c.stats, c.err = s.store.RunStats(spec)
	})
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	if err := s.await(r.Context(), c); err != nil {
		writeError(w, statusClientGone, err)
		return
	}
	if c.err != nil {
		writeError(w, callStatus(c.err), c.err)
		return
	}
	writeJSON(w, http.StatusOK, RunResponse{Stats: c.stats, Digest: digest, Coalesced: joined})
}

func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	var req MeasureRequest
	if !decodePost(w, r, &req) {
		return
	}
	s.reqMeasure.Add(1)

	wl, err := s.buildWorkload(req.Workload)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	mspec := scenario.MeasureSpec{Config: req.Config, Workload: wl, MaxCycles: DefaultMaxCycles}
	if err := mspec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	digest := mspec.Digest().String()
	// The measure's five runs share the accelerated spec's warmup
	// family; gate the whole job on it so a fleet-submitted sweep warms
	// once before fanning out.
	fam, hasFam := s.store.WarmupFamily(scenario.Spec{
		Config:    req.Config,
		Program:   wl.Accelerated,
		NewDevice: wl.NewDevice,
		DeviceKey: wl.DeviceKey,
		MaxCycles: DefaultMaxCycles,
	})
	// One admitted job runs its five constituent runs serially on one
	// worker; cross-request parallelism comes from the pool.
	c, joined, err := s.admit("measure:"+digest, req.Priority, fam, hasFam, func(c *call) {
		res, err := experiments.MeasureWorkloadStore(s.store, req.Config, wl, 1)
		if err != nil {
			c.err = err
			return
		}
		c.rec = res.MeasureRecord
	})
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	if err := s.await(r.Context(), c); err != nil {
		writeError(w, statusClientGone, err)
		return
	}
	if c.err != nil {
		writeError(w, callStatus(c.err), c.err)
		return
	}
	writeJSON(w, http.StatusOK, MeasureResponse{Record: c.rec, Digest: digest, Coalesced: joined})
}

func (s *Server) handleStatic(w http.ResponseWriter, r *http.Request) {
	var req StaticRequest
	if !decodePost(w, r, &req) {
		return
	}
	s.reqStatic.Add(1)

	wl, err := s.buildWorkload(req.Workload)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	mspec := scenario.MeasureSpec{Config: req.Config, Workload: wl, MaxCycles: DefaultMaxCycles}
	if err := mspec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	digest := mspec.Digest().String()
	// Static predictions cost microseconds — served inline, no queue.
	pred, err := experiments.StaticPredictWorkloadStore(s.store, req.Config, wl)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, StaticResponse{Prediction: pred, Digest: digest})
}

// statusClientGone is reported when the client's context ended before
// the result was ready (499 in nginx tradition; the client has usually
// stopped listening by then anyway).
const statusClientGone = 499

// callStatus is the reply status of a call that completed with err: 503
// when the pool refused it (a duplicate that joined a rejected call gets
// the rejection too), 422 when its work failed.
func callStatus(err error) int {
	if errors.Is(err, runner.ErrQueueFull) || errors.Is(err, runner.ErrPoolClosed) {
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}

// ServerMetrics counts server-level request handling. Coalesced here
// means "joined another client's in-flight call" — the cross-client
// singleflight; the store's own Coalesced counters additionally cover
// concurrent joins inside one compound job.
type ServerMetrics struct {
	RunRequests     int64 `json:"run_requests"`
	MeasureRequests int64 `json:"measure_requests"`
	StaticRequests  int64 `json:"static_requests"`
	Coalesced       int64 `json:"coalesced"`
	Rejected        int64 `json:"rejected"`
	Abandoned       int64 `json:"abandoned"`
	Parked          int64 `json:"parked"`
	Errored         int64 `json:"errored"`
}

// MetricsSnapshot is the /metrics payload: the one scenario.Metrics
// source of truth plus pool and server counters.
type MetricsSnapshot struct {
	Store  scenario.Metrics   `json:"store"`
	Pool   runner.PoolMetrics `json:"pool"`
	Server ServerMetrics      `json:"server"`
}

// Metrics snapshots all three layers.
func (s *Server) Metrics() MetricsSnapshot {
	return MetricsSnapshot{
		Store: s.store.Metrics(),
		Pool:  s.pool.Metrics(),
		Server: ServerMetrics{
			RunRequests:     s.reqRun.Load(),
			MeasureRequests: s.reqMeasure.Load(),
			StaticRequests:  s.reqStatic.Load(),
			Coalesced:       s.coalesced.Load(),
			Rejected:        s.rejected.Load(),
			Abandoned:       s.abandoned.Load(),
			Parked:          s.parked.Load(),
			Errored:         s.errored.Load(),
		},
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: /metrics needs GET"))
		return
	}
	writeJSON(w, http.StatusOK, s.Metrics())
}
