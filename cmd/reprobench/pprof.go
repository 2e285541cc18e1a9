package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// cpuSample is one CPU-profile sample: its stack, leaf first, with
// inlined frames expanded, and the CPU time it stands for.
type cpuSample struct {
	stack []string
	nanos int64
}

// decodeCPUProfile reads the gzipped profile.proto that runtime/pprof
// writes and returns its samples. Only the fields layer bucketing needs
// are decoded: sample types, samples, locations with their lines, and
// function names. The standard library has no pprof reader, and the
// benchmark may use nothing else.
func decodeCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type location struct{ funcIDs []uint64 } // innermost inlined frame first
	var (
		strs      []string
		typeNames []int64 // sample_type[i].type as a string-table index
		rawSample [][2][]uint64
		locs      = map[uint64]location{}
		funcName  = map[uint64]int64{}
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var typ int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			})
			typeNames = append(typeNames, typ)
			return err
		case 2: // sample
			var s [2][]uint64 // location ids, values
			err := eachField(b, func(n int, v uint64, pb []byte) error {
				if n == 1 || n == 2 {
					return appendVarints(&s[n-1], v, pb)
				}
				return nil
			})
			rawSample = append(rawSample, s)
			return err
		case 4: // location
			var id uint64
			var loc location
			err := eachField(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							loc.funcIDs = append(loc.funcIDs, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = loc
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, t := range typeNames {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]cpuSample, 0, len(rawSample))
	for _, s := range rawSample {
		if cpu >= len(s[1]) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var stack []string
		for _, id := range s[0] {
			for _, f := range locs[id].funcIDs {
				stack = append(stack, str(funcName[f]))
			}
		}
		out = append(out, cpuSample{stack: stack, nanos: int64(s[1][cpu])})
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and its varint value or length-delimited bytes. Fixed-width
// fields are skipped; profile.proto uses none that bucketing needs.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, which the
// encoder writes either one per field (v) or packed (data).
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
