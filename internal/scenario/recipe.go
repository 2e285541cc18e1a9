package scenario

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Recipe canonically describes one sweep point by how it is generated:
// the workload generator spec, the core configuration and the run
// limit. The store's recipe level maps it to the measure digest its
// workload builds to, plus the workload's counts, so a stored point is
// answered without building or hashing its programs.
//
// That mapping is a claim about the generators, and it holds while
// workload.GeneratorVersion does: the version is part of the key, and
// TestGeneratorVersionPinsOutput fails when some generator's output
// moves without a bump.
type Recipe struct {
	Spec      workload.Spec
	Config    sim.Config
	MaxCycles int64
}

// Digest returns the recipe's content address: GeneratorVersion, the
// spec's JSON (its wire form), the canonical config and the cycle bound.
// ok is false when the JSON does not decode back to the spec —
// encoding/json replaces invalid UTF-8 in strings, so two specs could
// share the bytes — and such a recipe has no canonical identity.
func (r Recipe) Digest() (d Digest, ok bool) {
	spec, err := json.Marshal(r.Spec)
	if err != nil {
		return Digest{}, false
	}
	var back workload.Spec
	if json.Unmarshal(spec, &back) != nil || !reflect.DeepEqual(back, r.Spec) {
		return Digest{}, false
	}
	e := newEncoder("recipe")
	e.u64(workload.GeneratorVersion)
	e.str(string(spec))
	e.config(r.Config)
	e.i64(r.MaxCycles)
	return e.sum(), true
}

// measureSpec is the measure spec of the recipe's built workload.
func (r Recipe) measureSpec(w *workload.Workload) MeasureSpec {
	return MeasureSpec{Config: r.Config, Workload: w, MaxCycles: r.MaxCycles}
}

// recipeValue is what a recipe resolves to: the measure digest its
// workload builds to and the workload's counts.
type recipeValue struct {
	measure Digest
	counts  workload.Counts
}

// MeasureRecipe returns the measurement of the point r names, and its
// workload's counts. measure computes the record from the built
// workload on a measure-level miss, typically issuing its runs through
// s.RunStats.
//
// A stored recipe builds nothing: the recipe level gives the measure
// digest and the measure level the record. A recipe miss builds and
// validates the workload once, measures it through the measure level
// and stores the recipe. A stored recipe whose record is gone builds to
// re-measure, and fails, writing nothing, if the workload no longer
// builds to the recipe's digest. A nil store builds, validates and
// measures directly. A recipe without a canonical identity, or whose
// workload fails validation (a device without a DeviceKey among them),
// is an error at every store state, and nothing is written for it.
func (s *Store) MeasureRecipe(r Recipe, measure func(*workload.Workload) (MeasureRecord, error)) (MeasureRecord, workload.Counts, error) {
	d, ok := r.Digest()
	if !ok {
		return MeasureRecord{}, workload.Counts{}, fmt.Errorf("scenario: the %s spec has no recipe identity: its JSON does not decode back to it", r.Spec.Kind)
	}
	if s == nil {
		w, err := s.buildWorkload(r.Spec)
		if err != nil {
			return MeasureRecord{}, workload.Counts{}, err
		}
		rec, err := measure(w)
		return rec, w.Counts(), err
	}
	// The caller that runs the recipe miss measures inside it, so a
	// caller joining the miss finds the record in memory and nobody
	// builds twice.
	var rec MeasureRecord
	measured := false
	rv, err := s.recipes.get(d,
		func() (recipeValue, bool) { return s.loadRecipeBlob(d) },
		func() (recipeValue, error) {
			w, err := s.buildWorkload(r.Spec)
			if err != nil {
				return recipeValue{}, err
			}
			measured = true
			rv := recipeValue{measure: r.measureSpec(w).Digest(), counts: w.Counts()}
			rec, err = s.measureAt(rv.measure, func() (MeasureRecord, error) { return measure(w) })
			return rv, err
		},
		func(rv recipeValue) { s.saveRecipeBlob(d, rv) })
	if err == nil && !measured {
		rec, err = s.measureStored(r, rv.measure, measure)
	}
	if err != nil {
		return MeasureRecord{}, workload.Counts{}, err
	}
	return rec.Clone(), rv.counts, nil
}

// measureStored answers a recipe hit from the measure level under the
// stored digest d. Only when the record is gone does it build the
// workload, and it refuses to measure one that no longer builds to d.
func (s *Store) measureStored(r Recipe, d Digest, measure func(*workload.Workload) (MeasureRecord, error)) (MeasureRecord, error) {
	return s.measureAt(d, func() (MeasureRecord, error) {
		w, err := s.buildWorkload(r.Spec)
		if err != nil {
			return MeasureRecord{}, err
		}
		if r.measureSpec(w).Digest() != d {
			return MeasureRecord{}, fmt.Errorf("scenario: stale recipe: the %s spec no longer builds to measure %s; a generator changed without a workload.GeneratorVersion bump (now %d)",
				r.Spec.Kind, d.Short(), workload.GeneratorVersion)
		}
		return measure(w)
	})
}

// buildWorkload runs the recipe's generator and validates its output.
func (s *Store) buildWorkload(spec workload.Spec) (*workload.Workload, error) {
	build := workload.Spec.Build
	if s != nil && s.build != nil {
		build = s.build
	}
	w, err := build(spec)
	if err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

// recipeBlob is a recipe's disk payload: the measure digest in hex and
// the workload's counts.
type recipeBlob struct {
	Measure string          `json:"measure"`
	Counts  workload.Counts `json:"counts"`
}

// loadRecipeBlob rejects a malformed measure digest and counts no built
// workload could have, so a hit always names a well-formed measurement.
func (s *Store) loadRecipeBlob(d Digest) (recipeValue, bool) {
	b, ok := s.loadBlob("recipe", d)
	if !ok || b.Recipe == nil || b.Recipe.Counts.Validate() != nil {
		return recipeValue{}, false
	}
	m, err := hex.DecodeString(b.Recipe.Measure)
	if err != nil || len(m) != len(Digest{}) {
		return recipeValue{}, false
	}
	rv := recipeValue{counts: b.Recipe.Counts}
	copy(rv.measure[:], m)
	return rv, true
}

func (s *Store) saveRecipeBlob(d Digest, rv recipeValue) {
	s.saveBlob("recipe", d, diskBlob{Recipe: &recipeBlob{Measure: rv.measure.String(), Counts: rv.counts}})
}
