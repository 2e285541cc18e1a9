package scenario

import "repro/internal/staticmodel"

// StaticPrediction returns the cached static-model prediction for the
// measure spec — the same content address that keys the spec's full
// measurement, in a separate namespace — computing it once via compute.
//
// The static level is memory-only by design: recomputing a prediction
// costs microseconds, less than a disk round-trip, so persistence would
// be pure overhead. What the cache buys is in-process deduplication
// (sweeps sharing points, the prune pre-pass followed by the staticerr
// table) and singleflight under concurrency. The spec must be valid
// (see MeasureSpec.Validate).
func (s *Store) StaticPrediction(spec MeasureSpec, compute func() (*staticmodel.Prediction, error)) (*staticmodel.Prediction, error) {
	if s == nil {
		return compute()
	}
	pred, err := s.statics.get(spec.Digest(), nil, compute, nil)
	return pred.Clone(), err
}
