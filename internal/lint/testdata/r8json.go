// Fixture for R8 (digest-field-coverage) on a struct the digest hashes
// through encoding/json. Posed as a package under internal/scenario, it
// defines a local Recipe whose Spec is passed whole to json.Marshal: the
// fields encoding/json emits are read, transitively; a field tagged
// `json:"-"` and an unexported field never reach the bytes, so two specs
// differing only there would hash alike.
package fixturejson

import "encoding/json"

type Recipe struct {
	Spec      GenSpec // marshaled whole: fine
	MaxCycles int64   // encoded: fine
}

type GenSpec struct {
	Kind  string
	Heap  *HeapConfig `json:"heap,omitempty"` // emitted under its tag: fine
	Notes string      `json:"-"`              // skipped by encoding/json -> reported
	seed  int64       // unexported, invisible to encoding/json -> reported
}

type HeapConfig struct {
	Operations int
	Sizes      []int
	Prefill    int `json:"-"` // skipped, one level down -> reported
}

type encoder struct{ buf []byte }

// str is the first consumer declaration, so aggregated per-type
// diagnostics anchor here.
func (e *encoder) str(s string) { // want:R8 want:R8
	e.buf = append(e.buf, s...)
}

func (r Recipe) Digest() []byte {
	spec, _ := json.Marshal(r.Spec)
	e := &encoder{}
	e.str(string(spec))
	e.buf = append(e.buf, byte(r.MaxCycles))
	return e.buf
}
