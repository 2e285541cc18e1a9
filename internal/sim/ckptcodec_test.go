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
	if got, want := len(warm), 533798; got != want {
		t.Errorf("warm heap checkpoint: %d bytes, want %d", got, want)
	}
	if got, want := sha256Hex(warm), "b0018b36199fcfd994f7e125e1737285f882cce8abee0b5aba1c499bc810c72d"; got != want {
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
	if got, want := total, 12919679; got != want {
		t.Errorf("mid-run checkpoints: %d bytes, want %d", got, want)
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), "cbf1cd1e1f533c4fcf970548dee05749b82cf42aa562466353372f860ed306b3"; got != want {
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
// flag word other than 0 or 1 fails, so two blobs never decode to one
// checkpoint. In the header it fails the decode; in State, which stays
// opaque until a resume, it fails the resume.
func TestCheckpointDecodeRejectsNonCanonicalFlags(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*Checkpoint)
	}{
		{"SuffixFree byte", func(ck *Checkpoint) { ck.SuffixFree = true }},
		{"PartialSpeculation word", func(ck *Checkpoint) { ck.Config.PartialSpeculation = true }},
	} {
		blob := nonCanonicalFlag(c.set)
		if _, err := UnmarshalCheckpoint(blob); err == nil {
			t.Errorf("%s of 7 decoded without error", c.name)
		}
	}

	cfg, w := tinyCase(t)
	core := tinyPaused(t)
	ck, err := core.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	core.halted = true
	halted, err := ckpt.Encode(core.walkState)
	if err != nil {
		t.Fatal(err)
	}
	ck.State[firstDiff(ck.State, halted)] = 7
	ck, err = UnmarshalCheckpoint(ck.MarshalBinary())
	if err != nil {
		t.Fatalf("blob with a halted flag of 7 in State did not decode: %v", err)
	}
	if _, err := NewFromCheckpoint(cfg, w.Accelerated, w.NewDevice(), ck); err == nil {
		t.Error("halted flag of 7 resumed without error")
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
	f.Add(nonCanonicalFlag(func(ck *Checkpoint) { ck.SuffixFree = true }))
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
// panics, whatever its State holds, and a blob that resumes under its own
// config re-encodes to itself from the resumed core.
// FuzzUnmarshalCheckpoint cannot reach State's decoder, which runs only
// on resume.
func FuzzResumeCheckpoint(f *testing.F) {
	cfg, w := tinyCase(f)
	core := tinyPaused(f)
	ck, err := core.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	real := ck.MarshalBinary()
	f.Add(real)
	// The device's state ends the blob. The heap's first free-list
	// count, after the device's miss counter and the allocator's arena
	// and counters, claims 2^62 entries.
	dev, err := ckpt.Encode(core.dev.(isa.AccelSnapshotter).WalkState)
	if err != nil {
		f.Fatal(err)
	}
	forged := append([]byte(nil), real...)
	at := len(forged) - len(dev) + 7*ckpt.WordBytes
	binary.LittleEndian.PutUint64(forged[at:], 1<<62)
	if fck, err := UnmarshalCheckpoint(forged); err != nil {
		f.Fatalf("forged free-list count fails to decode: %v", err)
	} else if _, err := NewFromCheckpoint(cfg, w.Accelerated, w.NewDevice(), fck); err == nil {
		f.Fatal("forged free-list count resumes: its offset has drifted")
	}
	f.Add(forged)
	// A pristine core whose device hides its state checkpoints without
	// device state, which must not resume under the snapshottable device.
	bare, err := New(cfg, w.Accelerated, bareDevice{w.NewDevice()})
	if err != nil {
		f.Fatal(err)
	}
	stateless, err := bare.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(stateless.MarshalBinary())
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

// tinyPaused is a core running tinyCase, paused mid-run.
func tinyPaused(tb testing.TB) *Core {
	tb.Helper()
	cfg, w := tinyCase(tb)
	core, err := New(cfg, w.Accelerated, w.NewDevice())
	if err != nil {
		tb.Fatal(err)
	}
	if paused, err := core.RunTo(ckptBudget, 2000); err != nil || !paused {
		tb.Fatalf("run did not pause at cycle 2000 (err %v)", err)
	}
	return core
}

// tinyCheckpoint is tinyPaused's checkpoint.
func tinyCheckpoint(tb testing.TB) *Checkpoint {
	tb.Helper()
	ck, err := tinyPaused(tb).Checkpoint()
	if err != nil {
		tb.Fatal(err)
	}
	return ck
}
