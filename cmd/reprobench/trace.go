package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval around a call the benchmark makes into a
// layer. Parent links a span to the span that caused it (0 for an
// iteration's root); each fleet request is one span, so its ID names the
// request.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced iterations pass nil and pay one branch per call.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	span
}

// begin opens a span named name under parent.
func (t *tracer) begin(name string, parent int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t, span{ID: t.next.Add(1), Parent: parent, Name: name, Start: time.Since(t.epoch)}}
}

// end closes the span and keeps it.
func (s openSpan) end() {
	if s.t == nil {
		return
	}
	s.End = time.Since(s.t.epoch)
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.span)
	s.t.mu.Unlock()
}

// snapshot returns the spans kept so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanSeconds sums, per iteration root, the durations of the spans with
// the given name below it and returns one total per root, in root order.
func spanSeconds(spans []span, roots []int64, name string) []float64 {
	parent := make(map[int64]int64, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	rootOf := func(id int64) int64 {
		for parent[id] != 0 {
			id = parent[id]
		}
		return id
	}
	sum := make(map[int64]float64, len(roots))
	for _, s := range spans {
		if s.Name == name {
			sum[rootOf(s.ID)] += (s.End - s.Start).Seconds()
		}
	}
	out := make([]float64, len(roots))
	for i, r := range roots {
		out[i] = sum[r]
	}
	return out
}

// selfTimes returns each span name's total self time: its spans'
// durations minus the part of each interval its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		lo, hi := s.Start, s.Start // current merged child interval, clipped to s
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if ke <= ks {
				continue
			}
			if ks > hi {
				covered += hi - lo
				lo, hi = ks, ke
			} else if ke > hi {
				hi = ke
			}
		}
		covered += hi - lo
		self[s.Name] += s.End - s.Start - covered
	}
	return self
}

// A layer names the functions whose CPU time counts as one layer's: a
// profile sample belongs to the layer of the innermost frame on its
// stack that one of them matches, so nested layers (the memory
// hierarchy under the simulator, JSON under a blob load) keep their own
// time. A pattern ending in "." matches a whole package; any other
// pattern matches one function.
type layer struct {
	metric   string
	patterns []string
}

// cpuLayers are the layers reached only beneath another layer's public
// function, and so measured by profile rather than by spans.
var cpuLayers = []layer{
	{"mem.cpu_s", []string{"repro/internal/mem."}},
	{"accel.engine_cpu_s", []string{
		"repro/internal/accel.",
		"repro/internal/isa.InvokeAndCollect",
		"repro/internal/sim.(*Core).tryStartAccel",
		"repro/internal/sim.(*Core).runEngine",
	}},
	{"sim.ckpt_cpu_s", []string{
		"repro/internal/sim.(*Core).RunToAccelFetch",
		"repro/internal/sim.(*Core).Checkpoint",
		"repro/internal/sim.NewFromCheckpoint",
		"repro/internal/sim.(*Checkpoint).MarshalBinary",
		"repro/internal/sim.UnmarshalCheckpoint",
	}},
	{"sim.run_cpu_s", []string{"repro/internal/sim.(*Core).Run"}},
	{"workload.build_cpu_s", []string{"repro/internal/workload."}},
	{"scenario.digest_cpu_s", []string{
		"repro/internal/scenario.Spec.Digest",
		"repro/internal/scenario.Spec.warmupDigest",
		"repro/internal/scenario.MeasureSpec.Digest",
	}},
	{"scenario.disk_cpu_s", []string{
		"repro/internal/scenario.(*Store).loadBlob",
		"repro/internal/scenario.(*Store).saveBlob",
	}},
	{"staticmodel.cpu_s", []string{"repro/internal/staticmodel."}},
	{"serve.http_cpu_s", []string{
		"net/http.",
		"repro/internal/serve.",
		"repro/internal/serve/client.",
	}},
}

// matchLayer returns the metric of the layer fn belongs to, or "".
func matchLayer(fn string) string {
	for _, l := range cpuLayers {
		for _, p := range l.patterns {
			if fn == p || strings.HasSuffix(p, ".") && strings.HasPrefix(fn, p) {
				return l.metric
			}
		}
	}
	return ""
}

// bucketCPU attributes each sample to its innermost layer and returns
// CPU nanoseconds per layer metric; samples under no layer (runtime,
// experiments drivers, the benchmark itself) go to "other".
func bucketCPU(samples []cpuSample) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range samples {
		metric := "other"
		for _, fn := range s.stack {
			if m := matchLayer(fn); m != "" {
				metric = m
				break
			}
		}
		out[metric] += s.nanos
	}
	return out
}

// cpuProfiler collects the CPU profile of the traced iterations and
// sums their layer buckets.
type cpuProfiler struct {
	buf     bytes.Buffer
	buckets map[string]int64
}

func (p *cpuProfiler) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

func (p *cpuProfiler) stop() error {
	pprof.StopCPUProfile()
	samples, err := decodeCPUProfile(p.buf.Bytes())
	if err != nil {
		return err
	}
	if p.buckets == nil {
		p.buckets = make(map[string]int64)
	}
	for k, v := range bucketCPU(samples) {
		p.buckets[k] += v
	}
	return nil
}

// traceFile is what a traced run writes at exit.
type traceFile struct {
	Provenance provenance       `json:"provenance"`
	Spans      []span           `json:"spans"`
	SelfNanos  map[string]int64 `json:"self_ns"`
	LayerCPU   map[string]int64 `json:"layer_cpu_ns"`
}

// writeTrace writes the spans, each span name's self time and the
// profile's layer buckets as one JSON file.
func writeTrace(path string, prov provenance, spans []span, cpu map[string]int64) error {
	self := make(map[string]int64)
	for name, d := range selfTimes(spans) {
		self[name] = int64(d)
	}
	data, err := json.MarshalIndent(traceFile{Provenance: prov, Spans: spans, SelfNanos: self, LayerCPU: cpu}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
