package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/accel"
	"repro/internal/ckpt"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/workload"
)

// TestCheckpointBytesGolden pins the checkpoint wire format: the exact
// bytes MarshalBinary writes for the warm heap checkpoint the codec
// benchmark times, and for every standard workload paused halfway
// through its run, as a baseline and in each mode. A change to the codec
// that moves a byte must bump ckptVersion and update these values.
func TestCheckpointBytesGolden(t *testing.T) {
	ck, _ := heapWarmCheckpoint(t)
	warm := ck.MarshalBinary()
	if got, want := len(warm), 533862; got != want {
		t.Errorf("warm heap checkpoint: %d bytes, want %d", got, want)
	}
	if got, want := sha256Hex(warm), "4b2d58b80e14a6a1ceaa81258525a62f0d7d0454435eca2a2cfa61a77a8dc31c"; got != want {
		t.Errorf("warm heap checkpoint: sha256 %s, want %s", got, want)
	}

	h := sha256.New()
	total := 0
	for _, c := range workloadModeCases(t) {
		core := c.newCore(t)
		if _, err := core.RunTo(ckptBudget, refCycles(t, c)/2); err != nil {
			t.Fatalf("%s: RunTo: %v", c.name, err)
		}
		ck, err := core.Checkpoint()
		if err != nil {
			t.Fatalf("%s: Checkpoint: %v", c.name, err)
		}
		b := ck.MarshalBinary()
		total += len(b)
		h.Write(b)
	}
	if got, want := total, 12921863; got != want {
		t.Errorf("mid-run checkpoints: %d bytes, want %d", got, want)
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "54844760a5ebe6b2bcd570ac2bfcf4147d255db444738681bca1351fd1c5107b"; got != want {
		t.Errorf("mid-run checkpoints: sha256 %s, want %s", got, want)
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestCheckpointCodecRoundTripsEveryField gives every field of a
// Checkpoint, unexported ones included, a distinct non-zero value and
// demands that decoding its encoding yields it back. The config fields
// Canonical erases are left zero: a checkpoint never holds them.
func TestCheckpointCodecRoundTripsEveryField(t *testing.T) {
	ck := &Checkpoint{}
	var next uint64
	fillDistinct(t, reflect.ValueOf(ck).Elem(), &next)
	ck.Config = ck.Config.Canonical()
	got, err := UnmarshalCheckpoint(ck.MarshalBinary())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Errorf("round trip is not deeply equal:\nwant %+v\ngot  %+v", ck, got)
	}
}

// fillDistinct sets every field reachable from v, exported or not, to a
// non-zero value: numbers count up from *next, strings spell the count,
// slices get two elements, pointers a new value, and flags are true.
func fillDistinct(t *testing.T, v reflect.Value, next *uint64) {
	t.Helper()
	*next++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*next))
		if v.IsZero() {
			v.SetInt(1)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(*next)
		if v.IsZero() {
			v.SetUint(1)
		}
	case reflect.String:
		v.SetString(fmt.Sprint(*next))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), next)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(t, v.Elem(), next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !f.CanSet() {
				f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
			}
			fillDistinct(t, f, next)
		}
	default:
		t.Fatalf("cannot fill a %s", v.Type())
	}
}

// TestCheckpointDecodeRejectsNonCanonicalFlags: a flag byte or config
// flag word other than 0 or 1 fails to decode, so two blobs never decode
// to one checkpoint.
func TestCheckpointDecodeRejectsNonCanonicalFlags(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*Checkpoint)
	}{
		{"Halted byte", func(ck *Checkpoint) { ck.Halted = true }},
		{"PartialSpeculation word", func(ck *Checkpoint) { ck.Config.PartialSpeculation = true }},
	} {
		blob := nonCanonicalFlag(c.set)
		if _, err := UnmarshalCheckpoint(blob); err == nil {
			t.Errorf("%s of 7 decoded without error", c.name)
		}
	}
}

// nonCanonicalFlag encodes a zero checkpoint with the one flag that set
// turns on holding 7 instead of 1.
func nonCanonicalFlag(set func(*Checkpoint)) []byte {
	var ck Checkpoint
	blob := ck.MarshalBinary()
	set(&ck)
	blob[firstDiff(blob, ck.MarshalBinary())] = 7
	return blob
}

func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestCheckpointDecodeBoundsCounts: a 264 KB memory frame whose page
// count claims every byte left fails without allocating for the claim.
// Each page encodes to 4104 bytes, so a count bounded only by the bytes
// left would allocate about 4000 times the frame's size.
func TestCheckpointDecodeBoundsCounts(t *testing.T) {
	empty, err := ckpt.Encode(isa.NewMemory().WalkState)
	if err != nil {
		t.Fatal(err)
	}
	at := len(empty) - ckpt.WordBytes // the page count ends an empty image's frame
	const size = 264 << 10
	forged := binary.LittleEndian.AppendUint64(empty[:at:at], size-uint64(at)-8)
	forged = append(forged, make([]byte, size-len(forged))...)

	m := isa.NewMemory()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = ckpt.Decode(forged, m.WalkState)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("forged page count decoded without error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2*size {
		t.Errorf("decoding a %d-byte frame allocated %d bytes", size, grew)
	}
}

// FuzzUnmarshalCheckpoint: decoding never panics, and a blob that
// decodes is exactly the encoding of what it decodes to.
func FuzzUnmarshalCheckpoint(f *testing.F) {
	var zero Checkpoint
	real := tinyCheckpoint(f).MarshalBinary()
	f.Add(zero.MarshalBinary())
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add(nonCanonicalFlag(func(ck *Checkpoint) { ck.Halted = true }))
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := UnmarshalCheckpoint(data)
		if err != nil {
			return
		}
		if !bytes.Equal(ck.MarshalBinary(), data) {
			t.Fatalf("%d-byte blob decodes but does not re-encode to itself", len(data))
		}
	})
}

// FuzzResumeCheckpoint: decoding a blob and resuming from it never
// panics, whatever its component frames hold, and a blob that resumes
// under its own config re-encodes to itself from the resumed core.
// FuzzUnmarshalCheckpoint cannot reach the frames' decoders, which run
// only on resume.
func FuzzResumeCheckpoint(f *testing.F) {
	cfg, w := tinyCase(f)
	ck := tinyCheckpoint(f)
	real := ck.MarshalBinary()
	f.Add(real)
	// The heap frame's first free-list count, after the device's miss
	// counter and the allocator's arena and counters, claims 2^62 entries.
	forged := append([]byte(nil), real...)
	at := len(forged) - 1 - len(ck.DeviceState) + 7*ckpt.WordBytes
	binary.LittleEndian.PutUint64(forged[at:], 1<<62)
	f.Add(forged)
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := UnmarshalCheckpoint(data)
		if err != nil {
			return
		}
		core, err := NewFromCheckpoint(cfg, w.Accelerated, w.NewDevice(), ck)
		if err != nil || ck.Config != cfg.Canonical() {
			return
		}
		again, err := core.Checkpoint()
		if err != nil {
			t.Fatalf("resumed core cannot checkpoint: %v", err)
		}
		if !bytes.Equal(again.MarshalBinary(), data) {
			t.Fatalf("%d-byte blob resumes but the resumed core does not re-encode to it", len(data))
		}
	})
}

// tinyCase is a heap workload on a core with small caches, the L1I
// enabled and next-line prefetch on, so its checkpoints stay a few tens
// of KB and every hierarchy counter moves.
func tinyCase(tb testing.TB) (Config, *workload.Workload) {
	tb.Helper()
	w, err := workload.Heap(workload.HeapConfig{Operations: 40, FillerPerCall: 10, Prefill: 16, Seed: 2})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := LowPerfConfig()
	cfg.Mode = accel.LT
	cfg.Memory = mem.DefaultHierarchy()
	cfg.Memory.L1I.SizeBytes = 512
	cfg.Memory.L1D.SizeBytes = 1 << 10
	cfg.Memory.L2.SizeBytes = 4 << 10
	return cfg, w
}

// tinyCheckpoint is tinyCase paused mid-run.
func tinyCheckpoint(tb testing.TB) *Checkpoint {
	tb.Helper()
	cfg, w := tinyCase(tb)
	core, err := New(cfg, w.Accelerated, w.NewDevice())
	if err != nil {
		tb.Fatal(err)
	}
	if paused, err := core.RunTo(ckptBudget, 2000); err != nil || !paused {
		tb.Fatalf("run did not pause at cycle 2000 (err %v)", err)
	}
	ck, err := core.Checkpoint()
	if err != nil {
		tb.Fatal(err)
	}
	return ck
}
