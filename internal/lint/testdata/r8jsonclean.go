// Fixture for R8 (digest-field-coverage): the struct of r8json.go
// without its `json:"-"` and unexported fields. Every field reaches the
// bytes json.Marshal hashes, transitively, so R8 reports nothing.
package fixturejsonclean

import "encoding/json"

type Recipe struct {
	Spec      GenSpec
	MaxCycles int64
}

type GenSpec struct {
	Kind string
	Heap *HeapConfig `json:"heap,omitempty"`
}

type HeapConfig struct {
	Operations int
	Sizes      []int
	Prefill    int
}

type encoder struct{ buf []byte }

func (e *encoder) str(s string) {
	e.buf = append(e.buf, s...)
}

func (r Recipe) Digest() []byte {
	spec, _ := json.Marshal(r.Spec)
	e := &encoder{}
	e.str(string(spec))
	e.buf = append(e.buf, byte(r.MaxCycles))
	return e.buf
}
