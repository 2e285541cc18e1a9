// Package ckpt is the checkpoint codec: fixed-width little-endian fields
// and length-prefixed slices, strings and maps. A component persists its
// state through one walk, a function that hands the codec a pointer to
// every field it keeps. Encoding appends each field the walk visits;
// decoding overwrites it from the input, in place. So no field can be
// written one way and forgotten the other.
//
// Decoding accepts only canonical bytes: a flag other than 0 or 1, a word
// too wide for a narrow field, or map keys out of ascending order fail.
// So every input that decodes re-encodes to itself. A decode keeps its
// first error, after which nothing is left to read and every further
// field decodes as zero; the caller then discards what it decoded into.
// Every count is bounded by the bytes left, so a forged count fails
// before anything is allocated for it.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// WordBytes is the width of every fixed-width field but the one-byte
// ones (Bool, U8).
const WordBytes = 8

// Codec walks persisted values in one direction: it encodes or decodes.
// Decoding reads buf from off; reading by offset leaves the buffer's
// pointer alone, so a read pays no GC write barrier.
type Codec struct {
	buf []byte
	off int
	dec bool
	err error
}

// Encoder returns a codec that appends to b.
func Encoder(b []byte) Codec { return Codec{buf: b} }

// decoder returns a codec that reads data, which it never modifies.
func decoder(data []byte) Codec { return Codec{buf: data, dec: true} }

// Encode returns walk's encoding, or the first error the walk reported.
func Encode(walk func(*Codec)) ([]byte, error) {
	k := Encoder(nil)
	walk(&k)
	return k.buf, k.Finish()
}

// Decode walks data into place and fails on the first malformed field
// or on bytes the walk left unread.
func Decode(data []byte, walk func(*Codec)) error {
	k := decoder(data)
	walk(&k)
	return k.Finish()
}

// Encoded returns what an encoder has appended, after the bytes it was
// given.
func (k *Codec) Encoded() []byte { return k.buf }

// Finish returns the walk's first error. A decoder also fails when input
// is left over.
func (k *Codec) Finish() error {
	if k.dec && k.left() != 0 {
		k.Failf("ckpt: %d trailing bytes", k.left())
	}
	return k.err
}

// Decoding reports whether the codec reads rather than writes.
func (k *Codec) Decoding() bool { return k.dec }

// Failf records an error unless one is already recorded, and ends a
// decode: nothing further is read. The message names its package, as
// the codec's own do ("ckpt: truncated").
func (k *Codec) Failf(format string, args ...any) {
	if k.err == nil {
		k.err = fmt.Errorf(format, args...)
	}
	k.off = len(k.buf)
}

// left is the number of bytes not yet decoded.
func (k *Codec) left() int { return len(k.buf) - k.off }

// short fails a read that runs past the input. Failure paths stay out
// of line so that each read is one call.
func (k *Codec) short() { k.Failf("ckpt: truncated") }

// take consumes n bytes, or returns nil when fewer are left.
func (k *Codec) take(n int) []byte {
	if k.left() < n {
		k.short()
		return nil
	}
	k.off += n
	return k.buf[k.off-n : k.off]
}

// put appends one word. Appending to k.buf in place, rather than through
// binary.AppendUint64's returned slice, stores only the new length, so an
// append that fits pays no GC write barrier.
func (k *Codec) put(v uint64) {
	k.buf = append(k.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// U64 walks a word.
func (k *Codec) U64(v *uint64) {
	switch {
	case !k.dec:
		k.put(*v)
	case k.left() >= WordBytes:
		*v = binary.LittleEndian.Uint64(k.buf[k.off:])
		k.off += WordBytes
	default:
		*v = 0
		k.short()
	}
}

// I64 walks a signed word.
func (k *Codec) I64(v *int64) {
	w := uint64(*v)
	k.U64(&w)
	*v = int64(w)
}

// Int walks an int as a signed word.
func (k *Codec) Int(v *int) {
	w := uint64(*v)
	k.U64(&w)
	*v = int(int64(w))
}

// U8 walks one byte.
func (k *Codec) U8(v *uint8) {
	switch {
	case !k.dec:
		k.buf = append(k.buf, *v)
	case k.off < len(k.buf):
		*v = k.buf[k.off]
		k.off++
	default:
		*v = 0
		k.short()
	}
}

// Bool walks a one-byte flag.
func (k *Codec) Bool(v *bool) {
	switch {
	case !k.dec:
		b := byte(0)
		if *v {
			b = 1
		}
		k.buf = append(k.buf, b)
	case k.off < len(k.buf) && k.buf[k.off] <= 1:
		*v = k.buf[k.off] == 1
		k.off++
	default:
		var b uint8
		k.U8(&b)
		*v = k.truth(uint64(b))
	}
}

// Flag walks a flag as a word of 0 or 1.
func (k *Codec) Flag(v *bool) {
	w := uint64(0)
	if *v {
		w = 1
	}
	k.U64(&w)
	*v = k.truth(w)
}

// truth decodes a flag, accepting only 0 and 1 so that each value has
// one encoding.
func (k *Codec) truth(b uint64) bool {
	if b > 1 {
		k.Failf("ckpt: flag %d is neither 0 nor 1", b)
	}
	return b == 1
}

// Narrow walks an integer held in a type narrower than its word.
// Decoding rejects a word the type cannot hold rather than truncate it.
func Narrow[T ~uint8 | ~int32](k *Codec, v *T) {
	w := int64(*v)
	k.I64(&w)
	if k.dec {
		if int64(T(w)) != w {
			k.Failf("ckpt: word %d out of range", w)
		}
		*v = T(w)
	}
}

// Count walks a length. Decoding bounds it by how many elements of at
// least min encoded bytes the rest of the input can hold.
func (k *Codec) Count(n, min int) int {
	k.Int(&n)
	if k.dec && (n < 0 || n > k.left()/min) {
		k.Failf("ckpt: implausible length %d with %d bytes left", n, k.left())
		return 0
	}
	return n
}

// Sized walks the length of *s. Decoding resizes *s to that many
// elements, reusing its backing array when it is large enough, for the
// caller's loop to overwrite; a zero length leaves a nil slice nil.
func Sized[T any](k *Codec, s *[]T, min int) {
	n := k.Count(len(*s), min)
	if !k.dec {
		return
	}
	if n <= cap(*s) {
		*s = (*s)[:n]
	} else {
		*s = make([]T, n)
	}
}

// Words walks a run of words whose length both sides know.
func (k *Codec) Words(s []uint64) {
	if !k.dec {
		k.buf = slices.Grow(k.buf, WordBytes*len(s))
		for _, v := range s {
			k.put(v)
		}
		return
	}
	b := k.take(WordBytes * len(s))
	if b == nil {
		return
	}
	for i := range s {
		s[i] = binary.LittleEndian.Uint64(b[WordBytes*i:])
	}
}

// Uint64s walks a slice of words: its length, then the words.
func (k *Codec) Uint64s(s *[]uint64) {
	Sized(k, s, WordBytes)
	k.Words(*s)
}

// Str walks a string: its length, then its bytes.
func (k *Codec) Str(s *string) {
	n := k.Count(len(*s), 1)
	if k.dec {
		*s = string(k.take(n))
	} else {
		k.buf = append(k.buf, *s...)
	}
}

// Bytes walks a byte slice: its length, then its bytes. Decoding copies
// them, so the result never aliases the input.
func (k *Codec) Bytes(b *[]byte) {
	n := k.Count(len(*b), 1)
	if k.dec {
		*b = append([]byte(nil), k.take(n)...)
	} else {
		k.buf = append(k.buf, *b...)
	}
}

// Frame walks a nested frame: its length, then what walk encodes.
// Decoding fails unless walk consumes the frame exactly.
func (k *Codec) Frame(walk func(*Codec)) {
	if !k.dec {
		at := len(k.buf)
		k.put(0)
		walk(k)
		binary.LittleEndian.PutUint64(k.buf[at:], uint64(len(k.buf)-at-WordBytes))
		return
	}
	n := k.Count(0, 1)
	sub := decoder(k.take(n))
	walk(&sub)
	if err := sub.Finish(); err != nil && k.err == nil {
		k.err = err
		k.off = len(k.buf)
	}
}

// Map walks a map with word keys: its length, then each key in strictly
// ascending order followed by what walk makes of its value. Sorting makes
// the encoding independent of map iteration order; decoding rejects keys
// out of order, so each map has one encoding. Decoding replaces the
// map's contents; a value it held under a decoded key is handed to walk
// to overwrite, so a page the map already had is reused. min is the least
// encoded size of one entry, key included.
func Map[V any](k *Codec, m *map[uint64]V, min int, walk func(*Codec, *V)) {
	var keys []uint64
	if !k.dec {
		keys = make([]uint64, 0, len(*m))
		for key := range *m {
			keys = append(keys, key)
		}
		slices.Sort(keys)
	}
	n := k.Count(len(keys), min)
	old := *m
	if k.dec {
		*m = make(map[uint64]V, n)
	}
	v := new(V) // one cell for every entry: walk's argument escapes
	var prev uint64
	for i := 0; i < n; i++ {
		var key uint64
		if !k.dec {
			key = keys[i]
		}
		k.U64(&key)
		if k.dec && i > 0 && key <= prev {
			k.Failf("ckpt: map key %#x not above %#x", key, prev)
			return
		}
		prev = key
		*v = old[key]
		walk(k, v)
		if k.dec {
			(*m)[key] = *v
		}
	}
}

// WalkedLen is the encoded size of what walk visits: with zero values,
// the least encoded size of an element, which bounds the counts a
// decoder accepts.
func WalkedLen(walk func(*Codec)) int {
	k := Encoder(nil)
	walk(&k)
	return len(k.buf)
}
