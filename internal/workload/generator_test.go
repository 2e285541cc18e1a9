package workload_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// generatorCorpus is a small seeded default per workload kind: big
// enough to exercise every generator path, small enough that the whole
// corpus builds in about a second.
var generatorCorpus = map[string]workload.Spec{
	"synthetic": {Kind: "synthetic", Synthetic: &workload.SyntheticConfig{
		Units: 20, UnitLen: 10, Regions: 4, RegionLen: 12, AccelLatency: 8, Seed: 3}},
	"heap": {Kind: "heap", Heap: &workload.HeapConfig{
		Operations: 20, FillerPerCall: 4, Prefill: 16, Seed: 3, WarmupFiller: 2}},
	"matmul": {Kind: "matmul", MatMul: &workload.MatMulConfig{N: 8, Block: 4, Tile: 2, Seed: 3}},
	"kvstore": {Kind: "kvstore", KVStore: &workload.KVStoreConfig{
		Operations: 20, FillerPerOp: 4, Buckets: 16, Keys: 6, LookupPct: 50, KeyWords: 2, Seed: 3}},
	"stringmatch": {Kind: "stringmatch", StringMatch: &workload.StringMatchConfig{
		Comparisons: 20, FillerPerOp: 4, Dictionary: 6, MinWords: 2, MaxWords: 6, SharedPrefix: 1, Seed: 3}},
	"regexmatch": {Kind: "regexmatch", RegexMatch: &workload.RegexMatchConfig{
		Pattern: "[ab]*abb", Matches: 20, FillerPerOp: 4, Inputs: 6, MaxLen: 10, Seed: 3}},
	"multitca": {Kind: "multitca", MultiTCA: &workload.MultiTCAConfig{
		Functions: workload.GreenDroidFunctions()[:3], Calls: 20, FillerPerCall: 10, Seed: 3}},
	"daestream": {Kind: "daestream", DAEStream: &workload.DAEStreamConfig{
		Streams: 3, WordsPerStream: 8, FillerPerOp: 4, ChunkWords: 4, ComputePerChunk: 2, Startup: 5, Seed: 3}},
	"loopnest": {Kind: "loopnest", LoopNest: &workload.LoopNestConfig{
		Calls: 3, FillerPerOp: 4, Trips: 3, Depth: 2, IterLatency: 1, ConfigLatency: 5, Seed: 3}},
}

// TestGeneratorVersionPinsOutput holds workload.GeneratorVersion to what
// the generators build. For every kind it builds the corpus default and,
// one leaf field of the config at a time (each element of a slice of
// structs too), a few variants of it, and hashes each accepted spec's
// JSON with its measure digest on the HP core. The measure digest covers
// the programs, the init image, the counts, AccelLatency and DeviceKey,
// so any change to what a generator builds moves the hash. A stored
// recipe trusts exactly that, so the hash is pinned next to the version.
func TestGeneratorVersionPinsOutput(t *testing.T) {
	const (
		pinVersion = 1
		pinScheme  = 3
		pinHash    = "a6bd477be08ab602654122f43d64d137b26f38d00966d88fc15d52144714bae5"
	)
	h := sha256.New()
	add := func(spec workload.Spec) bool {
		w, err := spec.Build()
		if err != nil {
			return false
		}
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		d := scenario.MeasureSpec{Config: sim.HighPerfConfig(), Workload: w, MaxCycles: 1 << 40}.Digest()
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(data))))
		h.Write(data)
		h.Write(d[:])
		return true
	}
	specs := 0
	for _, kind := range workload.Kinds() {
		base, ok := generatorCorpus[kind]
		if !ok {
			t.Fatalf("kind %s has no corpus default", kind)
		}
		if !add(base) {
			t.Fatalf("%s: the corpus default does not build", kind)
		}
		specs++
		for i, leaf := range configLeaves(t, base) {
			accepted := 0
			for _, val := range variants(t, leaf.v) {
				spec := cloneSpec(t, base)
				configLeaves(t, spec)[i].v.Set(val)
				if add(spec) {
					accepted++
				}
			}
			if accepted == 0 {
				t.Errorf("%s %s: the generator rejects every variant; give the field another", kind, leaf.path)
			}
			specs += accepted
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if workload.GeneratorVersion != pinVersion || scenario.SchemeVersion != pinScheme {
		t.Fatalf("GeneratorVersion %d and SchemeVersion %d, pin taken at %d and %d: re-pin (corpus hash %s over %d specs)",
			workload.GeneratorVersion, scenario.SchemeVersion, pinVersion, pinScheme, got, specs)
	}
	if got != pinHash {
		t.Fatalf("generator output changed: bump workload.GeneratorVersion and re-pin (corpus hash %s over %d specs, pinned %s)",
			got, specs, pinHash)
	}
}

// configLeaf is one settable scalar field of a spec's config.
type configLeaf struct {
	path string
	v    reflect.Value
}

// configLeaves lists the scalar fields of the spec's config in walk
// order, descending into nested structs and each slice element.
func configLeaves(t *testing.T, spec workload.Spec) []configLeaf {
	t.Helper()
	var out []configLeaf
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		default:
			if !v.CanSet() {
				t.Fatalf("%s: config field is not settable", path)
			}
			out = append(out, configLeaf{path, v})
		}
	}
	sv := reflect.ValueOf(spec)
	for i := 1; i < sv.NumField(); i++ {
		if !sv.Field(i).IsNil() {
			walk(sv.Field(i).Elem(), sv.Type().Field(i).Name)
		}
	}
	return out
}

// variants are the values a leaf is tried at: the neighbours, the double
// and the half of an integer, an appended rune for a string, the flip
// of a bool.
func variants(t *testing.T, v reflect.Value) []reflect.Value {
	t.Helper()
	var out []reflect.Value
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := v.Int()
		seen := map[int64]bool{x: true}
		for _, y := range []int64{x + 1, 2 * x, x - 1, x / 2} {
			if !seen[y] {
				seen[y] = true
				out = append(out, reflect.ValueOf(y).Convert(v.Type()))
			}
		}
	case reflect.String:
		out = append(out, reflect.ValueOf(v.String()+"x").Convert(v.Type()))
	case reflect.Bool:
		out = append(out, reflect.ValueOf(!v.Bool()))
	default:
		t.Fatalf("no variants for kind %s; extend variants()", v.Kind())
	}
	return out
}

// cloneSpec deep-copies a spec through its wire form.
func cloneSpec(t *testing.T, spec workload.Spec) workload.Spec {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var out workload.Spec
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}
