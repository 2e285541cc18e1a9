package scenario

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/staticmodel"
)

// TestShardedBlobLayout: new blobs land under the two-hex-digit shard
// directory, not flat in the cache root.
func TestShardedBlobLayout(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore(t, dir)
	spec := baselineSpec(t)
	if _, err := s.RunStats(spec); err != nil {
		t.Fatal(err)
	}
	h := spec.Digest().String()
	sharded := filepath.Join(dir, h[:2], "run-"+h+".json")
	if _, err := os.Stat(sharded); err != nil {
		t.Fatalf("sharded blob missing: %v", err)
	}
	flat := filepath.Join(dir, "run-"+h+".json")
	if _, err := os.Stat(flat); !os.IsNotExist(err) {
		t.Fatalf("flat-layout blob written alongside sharded one: %v", err)
	}
}

// TestCoalescedCounterClassification pins the hit/coalesced split that
// every cache level shares: a request that joins an in-flight execution
// is coalesced; a request arriving after completion is a memory hit.
func TestCoalescedCounterClassification(t *testing.T) {
	run, measure := accelSpec(t), staticTestSpec(t)
	levels := []struct {
		name    string
		request func(s *Store) error
		// counts picks the level's (hits, coalesced, misses) counters.
		counts func(m Metrics) (int64, int64, int64)
	}{
		{
			"run",
			func(s *Store) error { _, err := s.RunStats(run); return err },
			func(m Metrics) (int64, int64, int64) { return m.RunHits, m.RunCoalesced, m.RunMisses },
		},
		{
			"measure",
			func(s *Store) error {
				_, err := s.Measure(measure, func() (MeasureRecord, error) { return MeasureRecord{}, nil })
				return err
			},
			func(m Metrics) (int64, int64, int64) { return m.MeasureHits, m.MeasureCoalesced, m.MeasureMisses },
		},
		{
			"static",
			func(s *Store) error {
				_, err := s.StaticPrediction(measure, func() (*staticmodel.Prediction, error) {
					return staticTestPrediction(), nil
				})
				return err
			},
			func(m Metrics) (int64, int64, int64) { return m.StaticHits, m.StaticCoalesced, m.StaticMisses },
		},
		{
			"recipe",
			func(s *Store) error {
				var calls atomic.Int64
				_, _, err := s.MeasureRecipe(testRecipe(), recipeMeasure(s, &calls))
				return err
			},
			func(m Metrics) (int64, int64, int64) { return m.RecipeHits, m.RecipeCoalesced, m.RecipeMisses },
		},
	}
	for _, lv := range levels {
		t.Run(lv.name, func(t *testing.T) {
			s := newTestStore(t, "")

			// Two concurrent requests for one spec: whichever the
			// scheduler favors executes (the miss); the other is served
			// without executing — coalesced if it joined mid-flight, a
			// memory hit if it arrived after. The split is
			// scheduling-dependent, the sum is not.
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := lv.request(s); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			hits, coalesced, misses := lv.counts(s.Metrics())
			if misses != 1 {
				t.Fatalf("misses %d, want 1", misses)
			}
			if hits+coalesced != 1 {
				t.Fatalf("hits %d + coalesced %d, want exactly 1 duplicate served", hits, coalesced)
			}

			// A third request after everything settled is unambiguous:
			// memory hit, never coalesced.
			before := s.Metrics()
			if err := lv.request(s); err != nil {
				t.Fatal(err)
			}
			hits, coalesced, misses = lv.counts(s.Metrics().Sub(before))
			if hits != 1 || coalesced != 0 || misses != 0 {
				t.Errorf("settled duplicate: %d hits / %d coalesced / %d misses, want one memory hit",
					hits, coalesced, misses)
			}
		})
	}
}
