package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// Options configures a Server.
type Options struct {
	// Store backs every simulation; nil creates a fresh memory-only
	// store. One store per daemon is the whole point: every client
	// shares its memory cache, disk blobs, singleflight, and warm
	// checkpoints.
	Store *scenario.Store
	// Workers is the number of simulation slots (<= 0 selects
	// GOMAXPROCS): how many runs, warmups and forks execute at once.
	Workers int
	// QueueDepth bounds the misses waiting for a slot (<= 0 selects 4x
	// workers). A miss that finds every slot busy and the queue full is
	// answered 503 — backpressure, not buffering.
	QueueDepth int
}

// Server serves scenario submissions out of one store. Each handler
// calls the store on its own request goroutine: the store coalesces
// duplicates and gates simulations (scenario.Store.SetGate), so the
// server keeps no scheduling state of its own. Its handler is safe for
// arbitrary concurrency.
type Server struct {
	store *scenario.Store
	gate  *runner.Gate

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
	rejected   atomic.Int64
	errored    atomic.Int64
}

// New builds a Server and gates its store's simulations.
func New(opts Options) (*Server, error) {
	store := opts.Store
	if store == nil {
		var err error
		store, err = scenario.NewStore("")
		if err != nil {
			return nil, err
		}
	}
	gate := runner.NewGate(opts.Workers, opts.QueueDepth)
	store.SetGate(gate)
	return &Server{store: store, gate: gate, workloads: make(map[string]*wlEntry)}, nil
}

// Store exposes the daemon's shared store (for /metrics and tests).
func (s *Server) Store() *scenario.Store { return s.store }

// Close closes the gate: misses still waiting for a slot, and every
// later one, are answered 503; running simulations finish, and Close
// returns once they have. Stored results are still served.
func (s *Server) Close() { s.gate.Close() }

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

	st, err := s.store.RunStats(spec)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RunResponse{Stats: st, Digest: spec.Digest().String()})
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

	// The measure's five runs go through the store one after another on
	// this goroutine, each taking a slot only while it simulates;
	// cross-request parallelism comes from the gate's slots.
	res, err := experiments.MeasureWorkloadStore(s.store, req.Config, wl, 1)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, MeasureResponse{Record: res.MeasureRecord, Digest: mspec.Digest().String()})
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
	// Static predictions cost microseconds and simulate nothing, so the
	// gate never sees them.
	pred, err := experiments.StaticPredictWorkloadStore(s.store, req.Config, wl)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, StaticResponse{Prediction: pred, Digest: digest})
}

// callStatus is the reply status of a store call that failed with err:
// 503 when the gate refused a simulation it needed (a duplicate that
// joined the refused call gets the refusal too), 422 when its work
// failed.
func callStatus(err error) int {
	if runner.Refused(err) {
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}

// fail answers a failed store call and counts the reply.
func (s *Server) fail(w http.ResponseWriter, err error) {
	status := callStatus(err)
	if status == http.StatusServiceUnavailable {
		s.rejected.Add(1)
	} else {
		s.errored.Add(1)
	}
	writeError(w, status, err)
}

// ServerMetrics counts server-level request handling. Coalesced is the
// store's run and measure joins on an in-flight computation — the
// cross-client singleflight — and Parked its checkpoint joins: family
// members that waited on another member's warmup, holding no slot.
// Rejected counts requests answered 503, Errored those answered 422.
type ServerMetrics struct {
	RunRequests     int64 `json:"run_requests"`
	MeasureRequests int64 `json:"measure_requests"`
	StaticRequests  int64 `json:"static_requests"`
	Coalesced       int64 `json:"coalesced"`
	Rejected        int64 `json:"rejected"`
	Parked          int64 `json:"parked"`
	Errored         int64 `json:"errored"`
}

// MetricsSnapshot is the /metrics payload: the one scenario.Metrics
// source of truth plus the gate's counters (under "pool") and server
// counters.
type MetricsSnapshot struct {
	Store  scenario.Metrics   `json:"store"`
	Pool   runner.PoolMetrics `json:"pool"`
	Server ServerMetrics      `json:"server"`
}

// Metrics snapshots all three layers.
func (s *Server) Metrics() MetricsSnapshot {
	m := s.store.Metrics()
	return MetricsSnapshot{
		Store: m,
		Pool:  s.gate.Metrics(),
		Server: ServerMetrics{
			RunRequests:     s.reqRun.Load(),
			MeasureRequests: s.reqMeasure.Load(),
			StaticRequests:  s.reqStatic.Load(),
			Coalesced:       m.RunCoalesced + m.MeasureCoalesced,
			Rejected:        s.rejected.Load(),
			Parked:          m.CkptCoalesced,
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
