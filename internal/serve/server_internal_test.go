package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// wedge occupies the gate's slot with a job that blocks until the
// returned release func runs or the test ends, whichever comes first,
// so a failing test does not leave Close waiting on the wedge.
func wedge(t *testing.T, s *Server) (release func()) {
	t.Helper()
	started, block, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		s.gate.Do(func() {
			close(started)
			<-block
		})
	}()
	<-started
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(block)
			<-done
		})
	}
	t.Cleanup(release)
	return release
}

// saturate wedges a one-slot server's gate and fills its one-waiter
// queue: until release (or the end of the test), every simulation the
// store needs is refused.
func saturate(t *testing.T, s *Server) (release func()) {
	t.Helper()
	unwedge := wedge(t, s)
	filled := make(chan struct{})
	go func() {
		defer close(filled)
		s.gate.Do(func() {})
	}()
	waitFor(t, "the filler to wait for the slot", func() bool { return s.gate.Metrics().QueueLen == 1 })
	return func() {
		unwedge()
		<-filled
	}
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// reachedGate reports whether any request got as far as the gate.
func reachedGate(s *Server) bool {
	m := s.gate.Metrics()
	return m.Executed+m.Rejected != 0
}

// serveRuns posts each body to /v1/run concurrently and returns the
// status codes in order; it fails the test if they do not all answer
// within a minute.
func serveRuns(t *testing.T, s *Server, bodies ...[]byte) []int {
	t.Helper()
	return servePosts(t, s, "/v1/run", bodies...)
}

// servePosts is serveRuns for any endpoint.
func servePosts(t *testing.T, s *Server, path string, bodies ...[]byte) []int {
	t.Helper()
	codes := make([]int, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			codes[i] = rec.Code
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("requests still unanswered after a minute")
	}
	return codes
}

// familyBody is a run of a heap workload whose scalar warmup phase is
// long enough to fork, in one integration mode: the four modes make one
// warmup family.
func familyBody(t *testing.T, m accel.Mode) []byte {
	t.Helper()
	cfg := sim.HighPerfConfig()
	cfg.Mode = m
	body, err := json.Marshal(RunRequest{Config: cfg, Workload: WorkloadSpec{Kind: "heap", Heap: &workload.HeapConfig{
		Operations: 20, FillerPerCall: 10, Prefill: 64, Seed: 1, WarmupFiller: 12_000,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestAdmitCoalesces: duplicates of a miss that waits for a slot join
// its store entry instead of queueing at the gate: with the only slot
// busy and room for one waiter, every duplicate is answered and the
// burst costs one simulation.
func TestAdmitCoalesces(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	release := wedge(t, s)
	const n = 4
	body := testRunBody(t, 7)
	codes := make(chan []int, 1)
	go func() { codes <- serveRuns(t, s, body, body, body, body) }()
	waitFor(t, "the first request to wait for the slot", func() bool { return s.gate.Metrics().QueueLen == 1 })
	waitFor(t, "every request to arrive", func() bool { return s.reqRun.Load() == n })
	time.Sleep(20 * time.Millisecond)
	release()
	for i, code := range <-codes {
		if code != http.StatusOK {
			t.Errorf("request %d: status %d, want 200", i, code)
		}
	}
	m := s.Metrics()
	if m.Store.RunMisses != 1 || m.Store.RunHits+m.Store.RunCoalesced != n-1 || m.Server.Rejected != 0 {
		t.Errorf("%d misses, %d hits + %d coalesced, %d rejected; want 1, %d and 0", m.Store.RunMisses, m.Store.RunHits, m.Store.RunCoalesced, m.Server.Rejected, n-1)
	}
	if m.Server.Coalesced != m.Store.RunCoalesced {
		t.Errorf("server coalesced %d, want the store's %d run joins", m.Server.Coalesced, m.Store.RunCoalesced)
	}
}

// TestMeasureDuplicatesCoalesce: a duplicate measure that arrives while
// the first waits for the slot joins its store entry (or, arriving
// late, hits it), and the server's coalesced count includes measure
// joins beside run joins.
func TestMeasureDuplicatesCoalesce(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	release := wedge(t, s)
	cfg := workload.SyntheticConfig{Units: 8, UnitLen: 12, Regions: 4, RegionLen: 30, AccelLatency: 12, Seed: 12}
	body, err := json.Marshal(MeasureRequest{Config: sim.HighPerfConfig(), Workload: WorkloadSpec{Kind: "synthetic", Synthetic: &cfg}})
	if err != nil {
		t.Fatal(err)
	}
	codes := make(chan []int, 1)
	go func() { codes <- servePosts(t, s, "/v1/measure", body, body) }()
	waitFor(t, "the first measure to wait for the slot", func() bool { return s.gate.Metrics().QueueLen == 1 })
	waitFor(t, "both measures to arrive", func() bool { return s.reqMeasure.Load() == 2 })
	time.Sleep(20 * time.Millisecond)
	release()
	for i, code := range <-codes {
		if code != http.StatusOK {
			t.Errorf("measure %d: status %d, want 200", i, code)
		}
	}
	m := s.Metrics()
	if m.Store.MeasureMisses != 1 || m.Store.MeasureHits+m.Store.MeasureCoalesced != 1 {
		t.Errorf("%d measure misses, %d hits + %d coalesced; want 1 and 1", m.Store.MeasureMisses, m.Store.MeasureHits, m.Store.MeasureCoalesced)
	}
	if want := m.Store.RunCoalesced + m.Store.MeasureCoalesced; m.Server.Coalesced != want {
		t.Errorf("server coalesced %d, want the store's %d run and measure joins", m.Server.Coalesced, want)
	}
}

// TestFamilyParking: the members of a cold warmup family, requested
// together on a one-slot gate, run one warmup and one fork each. While
// the first member waits for the slot, the others wait on its warmup
// without a slot or a place in the gate queue, so nothing deadlocks.
func TestFamilyParking(t *testing.T) {
	n := len(accel.AllModes)
	s := newTestServer(t, Options{Workers: 1, QueueDepth: n})
	release := wedge(t, s)
	var bodies [][]byte
	for _, m := range accel.AllModes {
		bodies = append(bodies, familyBody(t, m))
	}
	codes := make(chan []int, 1)
	go func() { codes <- serveRuns(t, s, bodies...) }()
	waitFor(t, "a member to wait for the slot", func() bool { return s.gate.Metrics().QueueLen > 0 })
	time.Sleep(50 * time.Millisecond)
	if q := s.gate.Metrics().QueueLen; q != 1 {
		t.Errorf("%d callers wait for the slot during the warmup, want 1 (the warming member)", q)
	}
	release()
	for i, code := range <-codes {
		if code != http.StatusOK {
			t.Errorf("member %d: status %d, want 200", i, code)
		}
	}
	m := s.Metrics()
	if m.Store.CkptWarmups != 1 || m.Store.CkptForks != int64(n) || m.Store.RunMisses != int64(n) {
		t.Errorf("%d warmups, %d forks, %d run misses; want 1, %d and %d", m.Store.CkptWarmups, m.Store.CkptForks, m.Store.RunMisses, n, n)
	}
	if m.Server.Parked == 0 || m.Server.Parked != m.Store.CkptCoalesced || m.Server.Rejected != 0 {
		t.Errorf("parked %d, rejected %d; want the store's %d checkpoint joins, at least one, and 0", m.Server.Parked, m.Server.Rejected, m.Store.CkptCoalesced)
	}
}

// TestRejectedFamilyLeaderReleasesFamily: a family member refused at
// the full gate is answered 503 and leaves nothing behind — its warmup
// is not cached as "unforkable" — so once the gate has room the next
// member warms the family and forks. The refusal counts once, in
// rejected, and not in errored.
func TestRejectedFamilyLeaderReleasesFamily(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	release := saturate(t, s)
	if codes := serveRuns(t, s, familyBody(t, accel.LT)); codes[0] != http.StatusServiceUnavailable {
		t.Fatalf("member on a full gate: status %d, want 503", codes[0])
	}
	release()
	if codes := serveRuns(t, s, familyBody(t, accel.NLT)); codes[0] != http.StatusOK {
		t.Fatalf("next member: status %d, want 200", codes[0])
	}
	m := s.Metrics()
	if m.Store.CkptWarmups != 1 || m.Store.CkptForks != 1 || m.Store.RunMisses != 1 {
		t.Errorf("%d warmups, %d forks, %d run misses; want 1 each", m.Store.CkptWarmups, m.Store.CkptForks, m.Store.RunMisses)
	}
	if m.Server.Rejected != 1 || m.Server.Errored != 0 {
		t.Errorf("rejected = %d, errored = %d, want 1 and 0", m.Server.Rejected, m.Server.Errored)
	}
}

// TestCallStatus: a refusal, also when a measure wraps it, is a 503, so
// a client backs off and resubmits; a failure of the work itself stays
// a 422.
func TestCallStatus(t *testing.T) {
	for err, want := range map[error]int{
		runner.ErrQueueFull:                             http.StatusServiceUnavailable,
		runner.ErrPoolClosed:                            http.StatusServiceUnavailable,
		fmt.Errorf("baseline: %w", runner.ErrQueueFull): http.StatusServiceUnavailable,
		errors.New("simulation error"):                  http.StatusUnprocessableEntity,
	} {
		if got := callStatus(err); got != want {
			t.Errorf("callStatus(%v) = %d, want %d", err, got, want)
		}
	}
}

// TestAdmitAfterClose: after Close the gate admits no simulation, so a
// miss is answered 503, while a stored result is still answered 200.
func TestAdmitAfterClose(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	stored := testRunBody(t, 8)
	if codes := serveRuns(t, s, stored); codes[0] != http.StatusOK {
		t.Fatalf("before Close: status %d, want 200", codes[0])
	}
	s.Close()
	if codes := serveRuns(t, s, stored, testRunBody(t, 9)); codes[0] != http.StatusOK || codes[1] != http.StatusServiceUnavailable {
		t.Fatalf("after Close: stored %d, miss %d; want 200 and 503", codes[0], codes[1])
	}
}

func testRunBody(t *testing.T, seed int64) []byte {
	t.Helper()
	cfg := workload.SyntheticConfig{
		Units: 8, UnitLen: 12, Regions: 4, RegionLen: 30,
		AccelLatency: 12, Seed: seed,
	}
	body, err := json.Marshal(RunRequest{
		Config:   sim.HighPerfConfig(),
		Workload: WorkloadSpec{Kind: "synthetic", Synthetic: &cfg},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestRunQueueFull503: with the slot busy and the wait queue full, a
// miss is refused with 503 and a JSON error body — deterministically,
// because nothing can drain until the wedge releases.
func TestRunQueueFull503(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	saturate(t, s)

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(testRunBody(t, 1)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
		t.Fatalf("503 body: %q err %v", er.Error, err)
	}
	if got := s.rejected.Load(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
}

// TestStoredResultServedWhileGateFull: a stored result takes no slot,
// so it is answered while every slot is busy and the wait queue is full;
// only the miss beside it is refused.
func TestStoredResultServedWhileGateFull(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	stored := testRunBody(t, 10)
	if codes := serveRuns(t, s, stored); codes[0] != http.StatusOK {
		t.Fatalf("first request: status %d, want 200", codes[0])
	}
	saturate(t, s)
	if codes := serveRuns(t, s, stored, testRunBody(t, 11)); codes[0] != http.StatusOK || codes[1] != http.StatusServiceUnavailable {
		t.Fatalf("on a full gate: stored %d, miss %d; want 200 and 503", codes[0], codes[1])
	}
	if m := s.Metrics(); m.Store.RunHits != 1 || m.Store.RunMisses != 1 || m.Server.Rejected != 1 {
		t.Errorf("%d hits, %d misses, %d rejected; want 1 each", m.Store.RunHits, m.Store.RunMisses, m.Server.Rejected)
	}
}

// TestDecodeValidation: the handlers reject malformed requests with
// 400s and wrong methods with 405, before any simulation.
func TestDecodeValidation(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post("/v1/run", `{"bogus_field": 1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field: %d, want 400", code)
	}
	if code := post("/v1/run", `{"config": {}, "workload": {"kind": "nope"}}`); code != http.StatusBadRequest {
		t.Errorf("unknown workload kind: %d, want 400", code)
	}
	if code := post("/v1/run", `{not json`); code != http.StatusBadRequest {
		t.Errorf("bad json: %d, want 400", code)
	}
	var rr RunRequest
	if err := json.Unmarshal(testRunBody(t, 3), &rr); err != nil {
		t.Fatal(err)
	}
	rr.Program = "sideways"
	b, _ := json.Marshal(rr)
	if code := post("/v1/run", string(b)); code != http.StatusBadRequest {
		t.Errorf("unknown program: %d, want 400", code)
	}
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run: %d, want 405", resp.StatusCode)
	}
	if reachedGate(s) {
		t.Error("invalid requests reached the gate")
	}
}

// TestOversizeBody413: a body over maxRequestBytes is refused with 413
// and the usual JSON error before any simulation, and the daemon goes
// on serving: the next normal request succeeds.
func TestOversizeBody413(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var rr RunRequest
	if err := json.Unmarshal(testRunBody(t, 4), &rr); err != nil {
		t.Fatal(err)
	}
	rr.Program = strings.Repeat("x", 2<<20)
	big, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	var er ErrorResponse
	decErr := json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB body: status %d, want 413", resp.StatusCode)
	}
	if decErr != nil || er.Error == "" {
		t.Errorf("413 body: %q err %v", er.Error, decErr)
	}
	if reachedGate(s) {
		t.Error("an oversize request reached the gate")
	}

	resp, err = http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(testRunBody(t, 4)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("normal request after the oversize one: status %d, want 200", resp.StatusCode)
	}
}

// TestBuildWorkloadMemoized: one spec, spelled twice, builds once and
// returns the same pointer (program-digest memoization depends on it).
func TestBuildWorkloadMemoized(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	cfg := workload.SyntheticConfig{
		Units: 8, UnitLen: 12, Regions: 4, RegionLen: 30,
		AccelLatency: 12, Seed: 9,
	}
	a, err := s.buildWorkload(WorkloadSpec{Kind: "synthetic", Synthetic: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	b, err := s.buildWorkload(WorkloadSpec{Kind: "synthetic", Synthetic: &cfg2})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical specs built distinct workloads")
	}
}
