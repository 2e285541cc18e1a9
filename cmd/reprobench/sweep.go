package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/accel"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// dseWarmup is the scalar warmup ahead of the heap design-space sweep's
// accelerated region: long enough that every variant forked off the
// shared checkpoint skips most of its run (BenchmarkFig5HeapWarmupFork).
const (
	dseWarmup     = 200_000
	dseWarmupTiny = 20_000
)

// dseSpecs returns one half of the warmup-heavy heap design-space sweep:
// the four TCA modes with accel-event recording off and on, all with
// partial speculation set to partial. The halves and their variants
// differ only in post-warmup fields, so all share one warmup family.
func dseSpecs(w *workload.Workload, partial bool) []scenario.Spec {
	var specs []scenario.Spec
	for _, m := range accel.AllModes {
		for _, record := range []bool{false, true} {
			cfg := sim.HighPerfConfig()
			cfg.Mode = m
			cfg.PartialSpeculation = partial
			cfg.RecordAccelEvents = record
			specs = append(specs, scenario.Spec{
				Config:    cfg,
				Program:   w.Accelerated,
				NewDevice: w.NewDevice,
				DeviceKey: w.DeviceKey,
				MaxCycles: 4_000_000_000,
			})
		}
	}
	return specs
}

// runDSE runs specs through store on parallel workers, in input order.
func runDSE(store *scenario.Store, specs []scenario.Spec, parallel int) ([]sim.Stats, error) {
	out, _, err := runner.Map(context.Background(), parallel, specs,
		func(_ context.Context, _ int, spec scenario.Spec) (sim.Stats, error) {
			return store.RunStats(spec)
		})
	return out, err
}

// sweep is the sweep-cold or sweep-warm workload.
type sweep struct {
	cfg  config
	warm bool

	expected []byte          // the artifact every regeneration must reproduce
	offHalf  []scenario.Spec // partial speculation off: the cold half
	onHalf   []scenario.Spec // partial speculation on: the warm extension
	golden   string          // sweep-warm: blob directory filled in setup

	// results holds each iteration's measured variant Stats, checked
	// against direct runs after the timed phase.
	results [][]sim.Stats
}

func newSweep(cfg config, warm bool) *sweep { return &sweep{cfg: cfg, warm: warm} }

// setupReps: a warm setup fills a blob directory, seconds of simulation,
// so fewer repetitions give a steady median.
func (s *sweep) setupReps() int {
	switch {
	case s.cfg.tiny:
		return 1
	case s.warm:
		return 3
	}
	return 15
}

// setup loads the expected artifact and builds the design-space sweep;
// sweep-warm also fills the blob directory its replays start from: the
// cold artifact plus the cold half of the sweep, forking off one warmup.
func (s *sweep) setup() error {
	expected, err := expectedArtifact(s.cfg)
	if err != nil {
		return err
	}
	warm := dseWarmup
	if s.cfg.tiny {
		warm = dseWarmupTiny
	}
	heap, err := workload.Heap(workload.HeapConfig{
		Operations: 40, FillerPerCall: 0, Prefill: 512, Seed: s.cfg.seed, WarmupFiller: warm,
	})
	if err != nil {
		return err
	}
	s.expected = expected
	s.offHalf, s.onHalf = dseSpecs(heap, false), dseSpecs(heap, true)
	if !s.warm {
		return nil
	}
	dir, err := os.MkdirTemp(s.cfg.dir, "golden-*")
	if err != nil {
		return err
	}
	store, err := scenario.NewStore(dir)
	if err != nil {
		return err
	}
	art, err := renderArtifact(s.artifactRun(store), nil, 0)
	if err != nil {
		return err
	}
	if !bytes.Equal(art, s.expected) {
		return fmt.Errorf("setup: the cold fill's artifact differs from the expected artifact")
	}
	if _, err := runDSE(store, s.offHalf, s.cfg.parallel); err != nil {
		return err
	}
	if s.golden != "" {
		os.RemoveAll(s.golden)
	}
	s.golden = dir
	return nil
}

func (s *sweep) artifactRun(store *scenario.Store) artifactRun {
	return artifactRun{store: store, parallel: s.cfg.parallel, quick: s.cfg.tiny}
}

// iterate regenerates the artifact through a fresh disk-backed store
// and runs one half of the design-space sweep. Cold starts from an empty
// directory and runs the cold half; warm starts from a copy of the
// golden directory, so it never hits blobs an earlier replay wrote, and
// runs the warm half, forking each variant off the checkpoint blob.
func (s *sweep) iterate(tr *tracer) (iterResult, error) {
	dir, err := os.MkdirTemp(s.cfg.dir, "store-*")
	if err != nil {
		return iterResult{}, err
	}
	defer os.RemoveAll(dir)
	specs := s.offHalf
	if s.warm {
		specs = s.onHalf
		if err := copyTree(s.golden, dir); err != nil {
			return iterResult{}, err
		}
	}

	root := tr.begin("iteration", 0)
	t0 := time.Now()
	store, err := scenario.NewStore(dir)
	if err != nil {
		return iterResult{}, err
	}
	art, err := renderArtifact(s.artifactRun(store), tr, root.ID)
	if err != nil {
		return iterResult{}, err
	}
	dse := tr.begin("experiments.dse", root.ID)
	stats, err := runDSE(store, specs, s.cfg.parallel)
	dse.end()
	if err != nil {
		return iterResult{}, err
	}
	wall := time.Since(t0)
	root.end()

	res := iterResult{root: root.ID, wall: wall, store: store.Metrics(), stats: stats, attempted: 1 + len(specs)}
	if !bytes.Equal(art, s.expected) {
		res.wrong("the regenerated artifact differs from the expected artifact")
	}
	m := res.store
	if s.warm {
		if m.RunMisses != int64(len(specs)) || m.MeasureMisses != 0 || m.CkptWarmups != 0 || m.CkptDiskHits < 1 {
			res.unexpected("warm replay: %d run misses (want %d), %d measure misses, %d warmups (want 0), %d checkpoint disk hits (want >= 1)",
				m.RunMisses, len(specs), m.MeasureMisses, m.CkptWarmups, m.CkptDiskHits)
		}
	} else if m.CkptWarmups != 1 || m.CkptForks != int64(len(specs)) {
		res.unexpected("cold run: %d warmups and %d forks, want 1 warmup and %d forks", m.CkptWarmups, m.CkptForks, len(specs))
	}
	s.results = append(s.results, stats)
	return res, nil
}

// verify re-runs the measured design-space variants directly, with no
// store, and counts every iteration's variant that differs as failed.
func (s *sweep) verify() (int, error) {
	specs := s.offHalf
	if s.warm {
		specs = s.onHalf
	}
	direct, err := runDSE(nil, specs, s.cfg.parallel)
	if err != nil {
		return 0, err
	}
	want := make([][]byte, len(direct))
	for i, st := range direct {
		if want[i], err = canonicalJSON(st); err != nil {
			return 0, err
		}
	}
	failed := 0
	for _, stats := range s.results {
		for i, st := range stats {
			got, err := canonicalJSON(st)
			if err != nil {
				return 0, err
			}
			if !bytes.Equal(got, want[i]) {
				failed++
			}
		}
	}
	return failed, nil
}

func (s *sweep) close() {
	if s.golden != "" {
		os.RemoveAll(s.golden)
	}
}

// expectedArtifact is the committed figures_output.txt, or, for the tiny
// sizes, the quick artifact rendered with no store at all.
func expectedArtifact(cfg config) ([]byte, error) {
	if cfg.tiny {
		return renderArtifact(artifactRun{parallel: cfg.parallel, quick: true}, nil, 0)
	}
	return os.ReadFile(cfg.artifact)
}

// copyTree copies the regular files under src into dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}
