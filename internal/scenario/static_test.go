package scenario

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/accel"
	"repro/internal/sim"
	"repro/internal/staticmodel"
)

func staticTestSpec(t testing.TB) MeasureSpec {
	t.Helper()
	return MeasureSpec{Config: sim.HighPerfConfig(), Workload: testWorkload(t), MaxCycles: 1 << 30}
}

func staticTestPrediction() *staticmodel.Prediction {
	return &staticmodel.Prediction{
		BaselineCycles: 1000,
		Modes: []staticmodel.ModePrediction{
			{Mode: accel.LT, Speedup: 2, PredictedCycles: 500},
			{Mode: accel.NLNT, Speedup: 1.1, PredictedCycles: 909},
		},
	}
}

// TestStaticPredictionNilStore: the nil store computes directly, every
// call, with zero metrics — the no-cache mode.
func TestStaticPredictionNilStore(t *testing.T) {
	var s *Store
	spec := staticTestSpec(t)
	calls := 0
	for i := 0; i < 2; i++ {
		got, err := s.StaticPrediction(spec, func() (*staticmodel.Prediction, error) {
			calls++
			return staticTestPrediction(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Mode(accel.LT).Speedup != 2 {
			t.Errorf("call %d: wrong prediction returned", i)
		}
	}
	if calls != 2 {
		t.Errorf("nil store: compute called %d times, want 2", calls)
	}
}

// TestStaticPredictionCache: a repeated spec computes once; the second
// call is a hit; distinct specs do not collide.
func TestStaticPredictionCache(t *testing.T) {
	s := newTestStore(t, "")
	spec := staticTestSpec(t)
	calls := 0
	compute := func() (*staticmodel.Prediction, error) {
		calls++
		return staticTestPrediction(), nil
	}
	first, err := s.StaticPrediction(spec, compute)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.StaticPrediction(spec, compute)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("compute called %d times, want 1", calls)
	}
	if first.String() != second.String() {
		t.Error("cached prediction differs from first computation")
	}

	other := spec
	other.MaxCycles = 1 << 29 // digest-relevant field -> separate entry
	if _, err := s.StaticPrediction(other, compute); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("distinct spec: compute called %d times total, want 2", calls)
	}
	m := s.Metrics()
	if m.StaticMisses != 2 || m.StaticHits != 1 {
		t.Errorf("metrics %+v, want 2 static misses / 1 hit", m)
	}
}

// TestStaticPredictionReturnsClones: callers must be able to mutate the
// returned prediction without corrupting later hits.
func TestStaticPredictionReturnsClones(t *testing.T) {
	s := newTestStore(t, "")
	spec := staticTestSpec(t)
	compute := func() (*staticmodel.Prediction, error) { return staticTestPrediction(), nil }
	first, err := s.StaticPrediction(spec, compute)
	if err != nil {
		t.Fatal(err)
	}
	first.Modes[0].Speedup = -5
	first.BaselineCycles = 0
	second, err := s.StaticPrediction(spec, compute)
	if err != nil {
		t.Fatal(err)
	}
	if second.Mode(accel.LT).Speedup != 2 || second.BaselineCycles != 1000 {
		t.Error("mutating a returned prediction corrupted the cache")
	}
}

// TestStaticPredictionSingleflight: concurrent callers of the same spec
// share one computation.
func TestStaticPredictionSingleflight(t *testing.T) {
	s := newTestStore(t, "")
	spec := staticTestSpec(t)
	var mu sync.Mutex
	calls := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.StaticPrediction(spec, func() (*staticmodel.Prediction, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				return staticTestPrediction(), nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Errorf("compute called %d times under concurrency, want 1", calls)
	}
	m := s.Metrics()
	// A caller that arrives while the one computation is in flight is
	// coalesced, a later one a memory hit; the split depends on
	// scheduling, the sum does not.
	if m.StaticMisses != 1 || m.StaticHits+m.StaticCoalesced != 7 {
		t.Errorf("metrics %+v, want 1 static miss / 7 hits+coalesced", m)
	}
}

// TestStaticPredictionError: errors are cached like results (the spec
// is content-addressed; recomputing cannot succeed) and nil predictions
// stay nil through Clone.
func TestStaticPredictionError(t *testing.T) {
	s := newTestStore(t, "")
	spec := staticTestSpec(t)
	wantErr := errors.New("profile rejected")
	calls := 0
	compute := func() (*staticmodel.Prediction, error) {
		calls++
		return nil, wantErr
	}
	for i := 0; i < 2; i++ {
		pred, err := s.StaticPrediction(spec, compute)
		if !errors.Is(err, wantErr) {
			t.Fatalf("call %d: err = %v, want %v", i, err, wantErr)
		}
		if pred != nil {
			t.Fatalf("call %d: prediction = %v, want nil", i, pred)
		}
	}
	if calls != 1 {
		t.Errorf("failing compute called %d times, want 1 (errors are cached)", calls)
	}
}
