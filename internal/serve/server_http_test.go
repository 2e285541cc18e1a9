package serve_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/accel"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/sim"
	"repro/internal/workload"
)

// startDaemon runs an in-process daemon on a loopback listener and
// returns a typed client for it.
func startDaemon(t *testing.T, opts serve.Options) (*serve.Server, *client.Client) {
	t.Helper()
	srv, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, client.New(ts.URL)
}

func synthSpec(seed int64) serve.WorkloadSpec {
	cfg := workload.SyntheticConfig{
		Units: 8, UnitLen: 12, Regions: 4, RegionLen: 30,
		AccelLatency: 12, Seed: seed,
	}
	return serve.WorkloadSpec{Kind: "synthetic", Synthetic: &cfg}
}

// TestRunMatchesLocalExecution: the daemon's Stats for a request are
// byte-identical (as JSON) to executing the same spec locally with no
// store at all.
func TestRunMatchesLocalExecution(t *testing.T) {
	_, cl := startDaemon(t, serve.Options{Workers: 2})
	req := serve.RunRequest{Config: sim.HighPerfConfig(), Workload: synthSpec(1)}
	resp, err := cl.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	wl, err := req.Workload.Build()
	if err != nil {
		t.Fatal(err)
	}
	var noStore *scenario.Store
	want, err := noStore.RunStats(scenario.Spec{
		Config:    req.Config,
		Program:   wl.Accelerated,
		NewDevice: wl.NewDevice,
		DeviceKey: wl.DeviceKey,
		MaxCycles: serve.DefaultMaxCycles,
	})
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(resp.Stats)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Error("daemon stats differ from local execution")
	}
	if resp.Digest == "" {
		t.Error("cacheable run came back without a digest")
	}

	// The baseline program runs deviceless and must also match.
	req.Program = "baseline"
	bresp, err := cl.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	bwant, err := noStore.RunStats(scenario.Spec{
		Config: req.Config, Program: wl.Baseline, MaxCycles: serve.DefaultMaxCycles,
	})
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ = json.Marshal(bresp.Stats)
	wantJSON, _ = json.Marshal(bwant)
	if string(gotJSON) != string(wantJSON) {
		t.Error("daemon baseline stats differ from local execution")
	}
}

// TestConcurrentDuplicatesCostOneSimulation: N clients submitting the
// identical request produce one store miss; everyone gets the same
// bytes.
func TestConcurrentDuplicatesCostOneSimulation(t *testing.T) {
	srv, cl := startDaemon(t, serve.Options{Workers: 2})
	const n = 8
	req := serve.RunRequest{Config: sim.HighPerfConfig(), Workload: synthSpec(2)}

	results := make([]serve.RunResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = cl.Run(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	first, _ := json.Marshal(results[0].Stats)
	for i := 1; i < n; i++ {
		b, _ := json.Marshal(results[i].Stats)
		if string(b) != string(first) {
			t.Fatalf("client %d saw different stats", i)
		}
	}

	m := srv.Metrics()
	if m.Store.RunMisses != 1 {
		t.Errorf("store misses = %d, want 1 (one simulation for %d clients)", m.Store.RunMisses, n)
	}
	// Every duplicate is served without executing: as a join if it
	// arrived while the first run was in flight, as a memory hit
	// otherwise. The server's coalesced count is the store's joins.
	if served := m.Store.RunHits + m.Store.RunCoalesced; served != n-1 {
		t.Errorf("hits %d + coalesced %d = %d, want %d duplicates served",
			m.Store.RunHits, m.Store.RunCoalesced, served, n-1)
	}
	if m.Server.Coalesced != m.Store.RunCoalesced {
		t.Errorf("server coalesced %d, want the store's %d run joins", m.Server.Coalesced, m.Store.RunCoalesced)
	}
}

// TestMeasureMatchesLocal: a daemon-served measure record equals the
// local harness's record exactly.
func TestMeasureMatchesLocal(t *testing.T) {
	_, cl := startDaemon(t, serve.Options{Workers: 2})
	req := serve.MeasureRequest{Config: sim.HighPerfConfig(), Workload: synthSpec(3)}
	resp, err := cl.Measure(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := req.Workload.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.MeasureWorkload(req.Config, wl)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(resp.Record)
	wantJSON, _ := json.Marshal(want.MeasureRecord)
	if string(gotJSON) != string(wantJSON) {
		t.Error("daemon measure record differs from local harness")
	}
	if resp.Digest == "" {
		t.Error("cacheable measure came back without a digest")
	}
}

// TestStaticMatchesLocal: the inline static endpoint returns the local
// fast-path prediction.
func TestStaticMatchesLocal(t *testing.T) {
	_, cl := startDaemon(t, serve.Options{Workers: 1})
	req := serve.StaticRequest{Config: sim.HighPerfConfig(), Workload: synthSpec(4)}
	resp, err := cl.Static(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := req.Workload.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiments.StaticPredictWorkloadStore(nil, req.Config, wl)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Prediction == nil || !reflect.DeepEqual(*resp.Prediction, *want) {
		t.Errorf("static prediction differs:\n got %+v\nwant %+v", resp.Prediction, want)
	}
}

// TestMetricsAndHealth: the observability endpoints answer.
func TestMetricsAndHealth(t *testing.T) {
	_, cl := startDaemon(t, serve.Options{Workers: 1})
	if err := cl.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(context.Background(), serve.RunRequest{Config: sim.HighPerfConfig(), Workload: synthSpec(5)}); err != nil {
		t.Fatal(err)
	}
	snap, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Server.RunRequests != 1 || snap.Store.RunMisses != 1 || snap.Pool.Executed != 1 {
		t.Errorf("snapshot %+v: want 1 request / 1 miss / 1 executed", snap)
	}
}

// TestRepeatRequestIsHit: a sequential duplicate (arriving after the
// first completed) is served from store memory, not re-executed.
func TestRepeatRequestIsHit(t *testing.T) {
	srv, cl := startDaemon(t, serve.Options{Workers: 1})
	req := serve.RunRequest{Config: sim.HighPerfConfig(), Workload: synthSpec(6)}
	if _, err := cl.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	if m.Store.RunMisses != 1 || m.Store.RunHits+m.Store.RunCoalesced != 1 {
		t.Errorf("repeat request: %+v, want 1 miss and 1 served duplicate", m.Store)
	}
}

// TestNoForkStoreNeverParks: a store with checkpoint forking disabled
// runs a burst over one warmup family without a warmup, so no member
// waits on another's (parked stays 0), while a forking store warms the
// same family.
func TestNoForkStoreNeverParks(t *testing.T) {
	hcfg := workload.HeapConfig{Operations: 20, FillerPerCall: 10, Prefill: 64, Seed: 1, WarmupFiller: 3_000}
	spec := serve.WorkloadSpec{Kind: "heap", Heap: &hcfg}
	burst := func(store *scenario.Store) serve.MetricsSnapshot {
		srv, cl := startDaemon(t, serve.Options{Store: store, Workers: 2})
		var wg sync.WaitGroup
		for _, m := range accel.AllModes {
			cfg := sim.HighPerfConfig()
			cfg.Mode = m
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := cl.Run(context.Background(), serve.RunRequest{Config: cfg, Workload: spec}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		return srv.Metrics()
	}
	forking, err := scenario.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	if got := burst(forking).Store.CkptWarmups; got != 1 {
		t.Fatalf("forking store ran %d warmups for the family, want 1; the test would prove nothing", got)
	}

	store, err := scenario.NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	store.DisableCheckpointForking()
	m := burst(store)
	if m.Server.Parked != 0 {
		t.Errorf("parked = %d, want 0 with forking disabled", m.Server.Parked)
	}
	if m.Store.CkptWarmups != 0 {
		t.Errorf("ckpt warmups = %d, want 0 with forking disabled", m.Store.CkptWarmups)
	}
}
