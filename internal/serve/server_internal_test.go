package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/scenario"
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

// wedge occupies one worker with a call that blocks until the returned
// release func runs.
func wedge(t *testing.T, s *Server, key string) (release func()) {
	t.Helper()
	block := make(chan struct{})
	started := make(chan struct{})
	c, _, err := s.admit(key, 0, scenario.Digest{}, false, func(*call) {
		close(started)
		<-block
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("wedge never started")
	}
	return func() {
		close(block)
		<-c.done
	}
}

// TestAdmitCoalesces: a duplicate key joins the in-flight call instead
// of creating a second one.
func TestAdmitCoalesces(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	block := make(chan struct{})
	started := make(chan struct{})
	ran := 0
	c1, joined1, err := s.admit("k", 0, scenario.Digest{}, false, func(*call) {
		ran++
		close(started)
		<-block
	})
	if err != nil || joined1 {
		t.Fatalf("leader: joined=%v err=%v", joined1, err)
	}
	<-started
	c2, joined2, err := s.admit("k", 0, scenario.Digest{}, false, func(*call) { ran++ })
	if err != nil || !joined2 {
		t.Fatalf("duplicate: joined=%v err=%v", joined2, err)
	}
	if c1 != c2 {
		t.Fatal("duplicate got a different call")
	}
	close(block)
	<-c1.done
	if ran != 1 {
		t.Fatalf("run executed %d times, want 1", ran)
	}
	if got := s.coalesced.Load(); got != 1 {
		t.Fatalf("coalesced = %d, want 1", got)
	}
	// The call left the map: a later identical key is a fresh call.
	s.mu.Lock()
	_, still := s.calls["k"]
	s.mu.Unlock()
	if still {
		t.Fatal("completed call still in coalescing map")
	}
}

// TestFamilyParking: while a warmup family's leader is in flight, a
// second job of the same family parks outside the pool, then flushes
// when the leader completes.
func TestFamilyParking(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	fam := scenario.Digest{1}
	block := make(chan struct{})
	started := make(chan struct{})
	c1, _, err := s.admit("lead", 0, fam, true, func(*call) {
		close(started)
		<-block
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	followerRan := make(chan struct{})
	c2, joined, err := s.admit("follow", 0, fam, true, func(*call) { close(followerRan) })
	if err != nil || joined {
		t.Fatalf("follower: joined=%v err=%v", joined, err)
	}
	if got := s.parked.Load(); got != 1 {
		t.Fatalf("parked = %d, want 1", got)
	}
	// Parked means not in the pool: only the leader was submitted.
	if m := s.pool.Metrics(); m.Submitted != 1 {
		t.Fatalf("pool submitted = %d, want 1 (follower must be parked)", m.Submitted)
	}
	select {
	case <-followerRan:
		t.Fatal("follower ran while family was still warming")
	case <-time.After(20 * time.Millisecond):
	}

	close(block)
	<-c1.done
	select {
	case <-followerRan:
	case <-time.After(10 * time.Second):
		t.Fatal("follower never flushed after leader completed")
	}
	<-c2.done

	// The family is warm now: a third job schedules straight away.
	c3, _, err := s.admit("third", 0, fam, true, func(*call) {})
	if err != nil {
		t.Fatal(err)
	}
	<-c3.done
	if got := s.parked.Load(); got != 1 {
		t.Fatalf("parked = %d after warm family, want still 1", got)
	}
}

// TestRejectedFamilyLeaderReleasesFamily: a family leader that the full
// queue rejects completes like any call, so it flushes its family
// instead of leaving it warming for good: the next member schedules
// straight away rather than parking behind a leader that never runs.
// The rejection counts once, in rejected, and not in errored.
func TestRejectedFamilyLeaderReleasesFamily(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	release := wedge(t, s, "wedge")
	fill, _, err := s.admit("fill", 0, scenario.Digest{}, false, func(*call) {})
	if err != nil {
		t.Fatal(err)
	}
	fam := scenario.Digest{2}
	if _, _, err := s.admit("lead", 0, fam, true, func(*call) { t.Error("the rejected leader ran") }); !errors.Is(err, runner.ErrQueueFull) {
		t.Fatalf("leader: err %v, want ErrQueueFull", err)
	}
	release()
	<-fill.done

	ran := make(chan struct{})
	c, _, err := s.admit("next", 0, fam, true, func(*call) { close(ran) })
	if err != nil {
		t.Fatal(err)
	}
	if got := s.parked.Load(); got != 0 {
		t.Fatalf("parked = %d, want 0: the family still waits on its rejected leader", got)
	}
	select {
	case <-ran:
	case <-time.After(10 * time.Second):
		t.Fatal("the next family member never ran")
	}
	<-c.done
	if r, e := s.rejected.Load(), s.errored.Load(); r != 1 || e != 0 {
		t.Errorf("rejected = %d, errored = %d, want 1 and 0", r, e)
	}
}

// TestCallStatus: a duplicate that joined a call the pool refused gets
// the rejection as a 503, like the caller the pool refused, so a client
// backs off and resubmits; a failure of the work itself stays a 422.
func TestCallStatus(t *testing.T) {
	for err, want := range map[error]int{
		runner.ErrQueueFull:            http.StatusServiceUnavailable,
		runner.ErrPoolClosed:           http.StatusServiceUnavailable,
		errors.New("simulation error"): http.StatusUnprocessableEntity,
	} {
		if got := callStatus(err); got != want {
			t.Errorf("callStatus(%v) = %d, want %d", err, got, want)
		}
	}
}

// TestAbandonedCallSkipsExecution: when every waiter leaves before the
// job reaches a worker, the worker completes it without running the
// work.
func TestAbandonedCallSkipsExecution(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	release := wedge(t, s, "wedge")

	ran := false
	c, _, err := s.admit("x", 0, scenario.Digest{}, false, func(*call) { ran = true })
	if err != nil {
		t.Fatal(err)
	}
	s.leave(c)
	if got := s.abandoned.Load(); got != 1 {
		t.Fatalf("abandoned = %d, want 1", got)
	}
	release()
	<-c.done
	if ran {
		t.Fatal("abandoned call still executed")
	}
	if !errors.Is(c.err, context.Canceled) {
		t.Fatalf("abandoned call err = %v, want context.Canceled", c.err)
	}
}

// TestAbandonedCallRevivedByNewWaiter: a duplicate arriving after the
// last waiter left (but before execution) revives the scheduled call.
func TestAbandonedCallRevivedByNewWaiter(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	release := wedge(t, s, "wedge")

	ran := false
	c1, _, err := s.admit("x", 0, scenario.Digest{}, false, func(*call) { ran = true })
	if err != nil {
		t.Fatal(err)
	}
	s.leave(c1)
	c2, joined, err := s.admit("x", 0, scenario.Digest{}, false, func(*call) {})
	if err != nil || !joined || c2 != c1 {
		t.Fatalf("revival: joined=%v err=%v same=%v", joined, err, c2 == c1)
	}
	release()
	<-c1.done
	if !ran {
		t.Fatal("revived call did not execute")
	}
	if c1.err != nil {
		t.Fatal(c1.err)
	}
}

// TestSkippedCallNotJoined: a duplicate arriving just as the worker
// decides to skip an abandoned call must not join it and inherit its
// context.Canceled; it either revives the call before the decision or
// starts a fresh one after it, and the skipped call's completion must
// leave that fresh call in the coalescing map. Each round frees the
// wedged worker onto an abandoned call and admits the duplicate after a
// busy-wait that sweeps 0-20µs in 20ns steps, across the worker's
// decision.
func TestSkippedCallNotJoined(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	const rounds = 10000
	cancelled, lost := 0, 0
	for i := 0; i < rounds; i++ {
		block, started := make(chan struct{}), make(chan struct{})
		w, _, err := s.admit(fmt.Sprintf("wedge%d", i), 0, scenario.Digest{}, false, func(*call) {
			close(started)
			<-block
		})
		if err != nil {
			t.Fatal(err)
		}
		<-started
		c, _, err := s.admit("x", 0, scenario.Digest{}, false, func(*call) {})
		if err != nil {
			t.Fatal(err)
		}
		s.leave(c)
		close(block)
		for start, d := time.Now(), time.Duration(i%1000)*20*time.Nanosecond; time.Since(start) < d; {
		}
		// A fresh duplicate holds its worker until checked, so it is
		// still in the map when the skipped call has completed.
		hold := make(chan struct{})
		dup, _, err := s.admit("x", 0, scenario.Digest{}, false, func(*call) { <-hold })
		if err != nil {
			t.Fatal(err)
		}
		<-c.done
		if dup != c {
			s.mu.Lock()
			if s.calls["x"] != dup {
				lost++
			}
			s.mu.Unlock()
		}
		close(hold)
		<-w.done
		<-dup.done
		if errors.Is(dup.err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled > 0 || lost > 0 {
		t.Errorf("of %d duplicates, %d joined a skipped call and got context.Canceled, and %d fresh calls were dropped from the map by the skipped call's completion", rounds, cancelled, lost)
	}
}

// TestAdmitAfterClose fails cleanly.
func TestAdmitAfterClose(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, _, err := s.admit("k", 0, scenario.Digest{}, false, func(*call) {}); err == nil {
		t.Fatal("admit after Close succeeded")
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

// TestRunQueueFull503: with the worker wedged and the queue at
// capacity, a new submission is rejected with 503 — deterministically,
// because nothing can drain until the wedge releases.
func TestRunQueueFull503(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	release := wedge(t, s, "wedge")
	if _, _, err := s.admit("fill", 0, scenario.Digest{}, false, func(*call) {}); err != nil {
		t.Fatal(err)
	}

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
	release()
}

// TestRunClientGone499: a request whose context ends while its job is
// still queued gets 499 and abandons the call.
func TestRunClientGone499(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	release := wedge(t, s, "wedge")

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(testRunBody(t, 2))).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(rec, req)
	}()
	// Wait until the request's job is queued behind the wedge, then
	// pull the client away.
	deadline := time.Now().Add(10 * time.Second)
	for s.pool.Metrics().Submitted < 2 {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the pool")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	if rec.Code != statusClientGone {
		t.Fatalf("status %d, want %d", rec.Code, statusClientGone)
	}
	if got := s.abandoned.Load(); got != 1 {
		t.Fatalf("abandoned = %d, want 1", got)
	}
	release()
}

// TestDecodeValidation: the handlers reject malformed requests with
// 400s and wrong methods with 405, before any scheduling.
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
	if s.pool.Metrics().Submitted != 0 {
		t.Error("invalid requests reached the pool")
	}
}

// TestOversizeBody413: a body over maxRequestBytes is refused with 413
// and the usual JSON error before any scheduling, and the daemon goes
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
	if s.pool.Metrics().Submitted != 0 {
		t.Error("an oversize request reached the pool")
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
