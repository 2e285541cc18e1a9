package serve_test

import (
	"context"
	"testing"

	"repro/internal/experiments"
	"repro/internal/serve"
)

// The differential suite pins the service layer's core guarantee:
// routing a figure sweep through a loopback scenariod produces
// byte-identical rendered artifacts (Render and CSV) to local
// no-store execution. The daemon may coalesce, batch, checkpoint-fork,
// and cache however it likes — the bytes that reach the figure files
// must not move.

// quick are cmd/figures' -quick sizes, run serially without a store:
// the -no-cache path.
var quick = experiments.Options{Quick: true, Parallel: 1}

// measureRemote measures each point through a loopback daemon.
func measureRemote(t *testing.T, points []experiments.Point) []*experiments.WorkloadResult {
	t.Helper()
	_, cl := startDaemon(t, serve.Options{Workers: 2})
	var out []*experiments.WorkloadResult
	for i, p := range points {
		resp, err := cl.Measure(context.Background(), serve.MeasureRequest{Config: p.Config, Workload: p.Spec})
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		out = append(out, &experiments.WorkloadResult{MeasureRecord: resp.Record})
	}
	return out
}

func TestFig4ThroughDaemonByteIdentical(t *testing.T) {
	cfg := quick.Fig4()
	local, err := experiments.Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	remote := &experiments.Fig4Result{}
	for i, res := range measureRemote(t, cfg.Points()) {
		remote.Rows = append(remote.Rows, experiments.Fig4Row{AccelInstructions: cfg.RegionCounts[i], Result: res})
	}

	if got, want := remote.Render(), local.Render(); got != want {
		t.Errorf("Fig4 Render differs through daemon:\n got:\n%s\nwant:\n%s", got, want)
	}
	if got, want := remote.CSV(), local.CSV(); got != want {
		t.Errorf("Fig4 CSV differs through daemon:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestFig5ThroughDaemonByteIdentical(t *testing.T) {
	cfg := quick.Fig5()
	local, err := experiments.Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	remote := &experiments.Fig5Result{}
	for i, res := range measureRemote(t, cfg.Points()) {
		remote.Rows = append(remote.Rows, experiments.Fig5Row{FillerPerCall: cfg.FillerCounts[i], Result: res})
	}

	if got, want := remote.Render(), local.Render(); got != want {
		t.Errorf("Fig5 Render differs through daemon:\n got:\n%s\nwant:\n%s", got, want)
	}
	if got, want := remote.CSV(), local.CSV(); got != want {
		t.Errorf("Fig5 CSV differs through daemon:\n got:\n%s\nwant:\n%s", got, want)
	}
}
