package scenario

import (
	"errors"
	"testing"

	"repro/internal/accel"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The cached-vs-uncached pair: BenchmarkRunStatsUncached is the cost of
// one full simulation; BenchmarkRunStatsWarm is the cost of serving the
// same spec from the in-memory store (digest + map lookup + stats
// clone); BenchmarkRunStatsWarmDisk adds a fresh store per iteration so
// every request pays the blob read. BENCH_PR4.json tracks the spread.

func BenchmarkRunStatsUncached(b *testing.B) {
	spec := baselineSpec(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var s *Store
		if _, err := s.RunStats(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunStatsWarm(b *testing.B) {
	s := newTestStore(b, "")
	spec := baselineSpec(b)
	if _, err := s.RunStats(spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunStats(spec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunStatsWarmDisk(b *testing.B) {
	dir := b.TempDir()
	seed := newTestStore(b, dir)
	spec := baselineSpec(b)
	if _, err := seed.RunStats(spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newTestStore(b, dir)
		if _, err := s.RunStats(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDigest times a run-spec digest whose program sub-digest is
// already memoized: the config encoding plus one SHA-256 over a few
// hundred bytes. That is the per-request cost on scenariod's hit path;
// BenchmarkProgramDigest times the program hashing itself.
func BenchmarkDigest(b *testing.B) {
	spec := baselineSpec(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = spec.Digest()
	}
}

// BenchmarkProgramDigest times the un-memoized program sub-digest of a
// multi-megabyte generator program: E4's kvstore at filler 320. SetBytes
// counts the canonical encoding (48 bytes per instruction, 16 per init
// word), so the MB/s column is the encoder's throughput.
func BenchmarkProgramDigest(b *testing.B) {
	w, err := workload.KVStore(workload.KVStoreConfig{
		Operations: 600, FillerPerOp: 320,
		Buckets: 256, Keys: 128, LookupPct: 70, KeyWords: 4, Seed: 17,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := w.Baseline
	b.SetBytes(int64(48*len(p.Code) + 16*len(p.Init)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := newEncoder("program")
		e.program(p)
		_ = e.sum()
	}
}

// BenchmarkMeasureRecipeWarmDisk is the restart path for one point: a
// fresh store over a filled directory answers the heap registry default
// on the HP core by reading its recipe blob and its measure blob, and
// builds and hashes nothing. Its counterpart is BenchmarkWorkloadBuild
// plus BenchmarkProgramDigest for the same point, which every warm
// replay paid before the recipe level.
func BenchmarkMeasureRecipeWarmDisk(b *testing.B) {
	spec, err := workload.DefaultSpec("heap")
	if err != nil {
		b.Fatal(err)
	}
	r := Recipe{Spec: spec, Config: sim.HighPerfConfig(), MaxCycles: 4_000_000_000}
	// The record's shape is a measurement's: one result per mode.
	measure := func(*workload.Workload) (MeasureRecord, error) {
		rec := MeasureRecord{BaselineCycles: 1}
		for _, m := range accel.AllModes {
			rec.Modes = append(rec.Modes, ModeResult{Mode: m, SimCycles: 1})
		}
		return rec, nil
	}
	dir := b.TempDir()
	if _, _, err := newTestStore(b, dir).MeasureRecipe(r, measure); err != nil {
		b.Fatal(err)
	}
	noBuild := func(workload.Spec) (*workload.Workload, error) {
		return nil, errors.New("the warm point built its workload")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newTestStore(b, dir)
		s.build = noBuild
		if _, _, err := s.MeasureRecipe(r, measure); err != nil {
			b.Fatal(err)
		}
	}
}
