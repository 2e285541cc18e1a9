package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

// TestPercentileRule pins the reporting rule: a percentile is reported
// only with at least ten samples above it, so p99 needs 1000 samples.
// loadgen's p99 over 96 samples has none above it.
func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 99, 990, true},
		{999, 99, 990, false},
		{96, 99, 96, false},
		{21, 50, 11, true},
		{20, 50, 10, true},
		{19, 50, 10, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}

	if _, _, ok := highestSupported(seq(10)); ok {
		t.Error("10 samples support no percentile")
	}
	p, v, ok := highestSupported(seq(96))
	if !ok || v != 86 || p < 89.58 || p > 89.59 {
		t.Errorf("highestSupported(1..96) = p%v %v %v; want p89.58 = 86", p, v, ok)
	}

	for _, tc := range []struct {
		n        int
		tailName string
		tail     float64
		top      string
	}{
		{2000, "p99", 1980, " highest-supported p99.5=1990"},
		{96, "max", 96, " highest-supported p89.58=86"},
		{10, "max", 10, ""},
	} {
		if s := summarize(seq(tc.n)); s.tailName != tc.tailName || s.tail != tc.tail || s.top != tc.top {
			t.Errorf("summarize(1..%d) = %s %v%q, want %s %v%q", tc.n, s.tailName, s.tail, s.top, tc.tailName, tc.tail, tc.top)
		}
	}
	if s := summarize(seq(2000)); s.p50 != 1000.5 {
		t.Errorf("summarize(1..2000) median = %v", s.p50)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v", m)
	}
}

// TestBucketInnermostLayer checks that a sample belongs to the innermost
// layer on its stack, and that function patterns match whole names.
func TestBucketInnermostLayer(t *testing.T) {
	const (
		sim   = "repro/internal/sim."
		scen  = "repro/internal/scenario."
		serve = "repro/internal/serve."
	)
	samples := []cpuSample{
		{[]string{"repro/internal/mem.(*Cache).lookup", "repro/internal/mem.(*Hierarchy).Access",
			sim + "(*Core).issue", sim + "(*Core).runLoop", sim + "(*Core).Run", scen + "Spec.run"}, 1},
		{[]string{sim + "(*Core).commit", sim + "(*Core).runLoop", sim + "(*Core).Run"}, 2},
		{[]string{sim + "(*Core).commit", sim + "(*Core).runLoop", sim + "(*Core).RunToAccelFetch", scen + "Spec.warmup"}, 4},
		{[]string{"encoding/json.(*decodeState).object", "encoding/json.Unmarshal", scen + "(*Store).loadBlob",
			scen + "(*Store).RunStats", serve + "(*Server).handleRun", "net/http.HandlerFunc.ServeHTTP"}, 8},
		{[]string{"crypto/sha256.block", scen + "(*encoder).sum", scen + "MeasureSpec.Digest",
			serve + "(*Server).handleMeasure", "net/http.(*conn).serve"}, 16},
		{[]string{"encoding/json.Marshal", serve + "writeJSON", serve + "(*Server).handleRun"}, 32},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, 64},
		{[]string{"repro/internal/accel.(*HeapDevice).Invoke", "repro/internal/isa.InvokeAndCollect",
			sim + "(*Core).tryStartAccel", sim + "(*Core).Run"}, 128},
		{[]string{"repro/internal/isa.(*Builder).Emit", "repro/internal/workload.Heap", "main.(*sweep).setup"}, 256},
	}
	want := map[string]int64{
		"mem.cpu_s": 1, "sim.run_cpu_s": 2, "sim.ckpt_cpu_s": 4, "scenario.disk_cpu_s": 8,
		"scenario.digest_cpu_s": 16, "serve.http_cpu_s": 32, "other": 64,
		"accel.engine_cpu_s": 128, "workload.build_cpu_s": 256,
	}
	got := bucketCPU(samples)
	if len(got) != len(want) {
		t.Errorf("buckets %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
}

// TestBucketFixtureProfile decodes a CPU profile runtime/pprof wrote for
// a tiny sweep-cold and fleet iteration and pins its layer split.
func TestBucketFixtureProfile(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "cpu.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	samples, err := decodeCPUProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range samples {
		if len(s.stack) == 0 {
			t.Fatal("sample without a stack")
		}
		total += s.nanos
	}
	buckets := bucketCPU(samples)
	var sum int64
	for _, v := range buckets {
		sum += v
	}
	if sum != total || total != fixtureTotalNanos {
		t.Errorf("profile total %d ns, buckets sum to %d ns; want %d", total, sum, fixtureTotalNanos)
	}
	for k, v := range fixtureBuckets {
		if buckets[k] != v {
			t.Errorf("%s = %d ns, want %d", k, buckets[k], v)
		}
	}
	if len(buckets) != len(fixtureBuckets) {
		t.Errorf("buckets %v, want %v", buckets, fixtureBuckets)
	}

	if _, err := decodeCPUProfile(data[:len(data)/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

// TestSelfTimes checks that a span's self time excludes the union of
// its children, overlapping or not.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "iteration", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "b", Start: 70, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Name: "c", Start: 35, End: 45},
	}
	self := selfTimes(spans)
	for name, want := range map[string]int64{"iteration": 30, "a": 40, "b": 50, "c": 10} {
		if int64(self[name]) != want {
			t.Errorf("self(%s) = %d, want %d", name, self[name], want)
		}
	}
	if got := spanSeconds(spans, []int64{1}, "c"); len(got) != 1 || got[0] != 10e-9 {
		t.Errorf("spanSeconds(c) = %v", got)
	}
}

// TestWorkloadsSmoke runs each workload at tiny sizes, one untraced and
// one traced iteration, and checks its outputs, its traffic assertions
// and that every metric of the set is reported.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every workload")
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"sweep-cold", "sweep-warm", "fleet"} {
		for _, trace := range []bool{false, true} {
			if trace && w == "sweep-warm" {
				continue // its traced path is sweep-cold's
			}
			dir := t.TempDir()
			cfg := config{workload: w, seed: 3, trace: trace, parallel: 2, dir: dir,
				traceOut: filepath.Join(dir, "trace.json"), tiny: true}
			var out bytes.Buffer
			res, err := run(cfg, provenance{Workload: w}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					w, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			names := bench.EndToEnd
			if trace {
				names = bench.PerLayer
			}
			for _, m := range names {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.Name)
				}
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(names))
			}
			if trace && !strings.Contains(out.String(), "trace.overhead_frac") {
				t.Errorf("%s: traced report lacks trace.overhead_frac", w)
			}
		}
	}
}

// TestRealMainRejectsBadFlags checks the flag errors exit 2 before the
// benchmark touches the disk.
func TestRealMainRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "fleet", "-trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := realMain(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("realMain(%v) = %d with stdout %q, want 2 and no result", args, code, out.String())
		}
	}
}

// The fixture's layer split. Each layer that nothing nests beneath
// (mem, digest, disk, staticmodel) equals `go tool pprof -traces -focus`
// on its entry functions, summed.
const fixtureTotalNanos = 2_190_000_000

var fixtureBuckets = map[string]int64{
	"mem.cpu_s":             100_000_000,
	"accel.engine_cpu_s":    120_000_000,
	"sim.ckpt_cpu_s":        30_000_000,
	"sim.run_cpu_s":         1_440_000_000,
	"workload.build_cpu_s":  140_000_000,
	"scenario.digest_cpu_s": 140_000_000,
	"scenario.disk_cpu_s":   60_000_000,
	"staticmodel.cpu_s":     10_000_000,
	"serve.http_cpu_s":      40_000_000,
	"other":                 110_000_000,
}
