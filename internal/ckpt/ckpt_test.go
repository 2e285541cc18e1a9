package ckpt

import (
	"bytes"
	"reflect"
	"testing"
)

// state exercises every kind of field a component walks.
type state struct {
	word  uint64
	flag  bool
	small int32
	list  []uint64
	name  string
	table map[uint64]bool
	inner []uint64
}

func (s *state) walk(k *Codec) {
	k.U64(&s.word)
	k.Flag(&s.flag)
	Narrow(k, &s.small)
	k.Uint64s(&s.list)
	k.Str(&s.name)
	Map(k, &s.table, WordBytes+1, (*Codec).Bool)
	k.Frame(func(k *Codec) { k.Uint64s(&s.inner) })
}

func sample() *state {
	return &state{
		word: 7, flag: true, small: -3, list: []uint64{1, 2, 3}, name: "l2",
		table: map[uint64]bool{9: true, 2: false, 5: true}, inner: []uint64{4},
	}
}

// TestRoundTripInPlace decodes into a value that already holds other
// state, as a resume decodes into a freshly built component: every field
// is replaced, an empty list included, and the result re-encodes to the
// same bytes.
func TestRoundTripInPlace(t *testing.T) {
	want := sample()
	want.list = nil
	enc, err := Encode(want.walk)
	if err != nil {
		t.Fatal(err)
	}
	got := sample()
	got.table[100] = true
	if err := Decode(enc, got.walk); err != nil {
		t.Fatal(err)
	}
	if len(got.list) != 0 || len(got.table) != len(want.table) {
		t.Fatalf("decode kept stale state: list %v, table %v", got.list, got.table)
	}
	got.list = nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %+v, want %+v", got, want)
	}
	again, err := Encode(got.walk)
	if err != nil || !bytes.Equal(again, enc) {
		t.Errorf("re-encoding differs (err %v)", err)
	}
}

// TestDecodeRejects: every non-canonical or malformed input fails
// instead of decoding to a value that would re-encode differently.
func TestDecodeRejects(t *testing.T) {
	enc, err := Encode(sample().walk)
	if err != nil {
		t.Fatal(err)
	}
	// Offsets into enc: word, flag word, narrow word, then the list.
	const flagAt, smallAt, countAt = 8, 16, 24
	tableAt := countAt + 8 + 3*8 + 8 + len("l2")
	for name, corrupt := range map[string]func(b []byte){
		"flag of 2":         func(b []byte) { b[flagAt] = 2 },
		"narrow overflow":   func(b []byte) { b[smallAt+5] = 1 },
		"implausible count": func(b []byte) { b[countAt+7] = 1 },
		// The table's first two keys, 2 and 5, swap places.
		"unsorted keys": func(b []byte) { b[tableAt+8], b[tableAt+8+9] = 5, 2 },
		// The frame's length word, before its list's count and word,
		// falls one byte short of what the frame's walk reads.
		"short frame": func(b []byte) { b[len(b)-24]-- },
	} {
		b := append([]byte(nil), enc...)
		corrupt(b)
		if err := Decode(b, new(state).walk); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if err := Decode(enc[:len(enc)-1], new(state).walk); err == nil {
		t.Error("truncated input decoded without error")
	}
	if err := Decode(append(enc, 0), new(state).walk); err == nil {
		t.Error("trailing byte decoded without error")
	}
}
