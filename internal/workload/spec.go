package workload

import (
	"fmt"
	"reflect"
	"strings"
)

// Spec names one deterministic workload generator plus its
// configuration. It is the wire form of a workload (scenariod requests
// carry it, cmd/tcasim decodes -spec into it) and the one place the
// workload kinds are listed: each kind is a config field below, whose
// JSON name is the kind, a Build case, and a default in DefaultSpec.
//
// Kind selects the generator; exactly the matching config field must be
// set. Building the same spec twice yields behaviorally identical
// workloads (the generators are deterministic in their seeds), which is
// what lets digests computed server-side stand for the client's intent.
type Spec struct {
	Kind string `json:"kind"`

	Synthetic   *SyntheticConfig   `json:"synthetic,omitempty"`
	Heap        *HeapConfig        `json:"heap,omitempty"`
	MatMul      *MatMulConfig      `json:"matmul,omitempty"`
	KVStore     *KVStoreConfig     `json:"kvstore,omitempty"`
	StringMatch *StringMatchConfig `json:"stringmatch,omitempty"`
	RegexMatch  *RegexMatchConfig  `json:"regexmatch,omitempty"`
	MultiTCA    *MultiTCAConfig    `json:"multitca,omitempty"`
	DAEStream   *DAEStreamConfig   `json:"daestream,omitempty"`
	LoopNest    *LoopNestConfig    `json:"loopnest,omitempty"`
}

// Build regenerates the workload the spec names.
func (s Spec) Build() (*Workload, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case "synthetic":
		return Synthetic(*s.Synthetic)
	case "heap":
		return Heap(*s.Heap)
	case "matmul":
		return MatMul(*s.MatMul)
	case "kvstore":
		return KVStore(*s.KVStore)
	case "stringmatch":
		return StringMatch(*s.StringMatch)
	case "regexmatch":
		return RegexMatch(*s.RegexMatch)
	case "multitca":
		return MultiTCA(*s.MultiTCA)
	case "daestream":
		return DAEStream(*s.DAEStream)
	case "loopnest":
		return LoopNest(*s.LoopNest)
	}
	return nil, fmt.Errorf("workload: workload kind %q has no Build case", s.Kind)
}

// DefaultSpec returns the spec cmd/tcasim runs for kind when -spec
// overrides nothing.
func DefaultSpec(kind string) (Spec, error) {
	all := Spec{
		Synthetic: &SyntheticConfig{Units: 400, UnitLen: 25, Regions: 40, RegionLen: 60, AccelLatency: 12, Seed: 1},
		Heap:      &HeapConfig{Operations: 600, FillerPerCall: 20, Prefill: 512, Seed: 1},
		MatMul:    &MatMulConfig{N: 64, Block: 32, Tile: 4, Seed: 1},
		KVStore: &KVStoreConfig{Operations: 400, FillerPerOp: 40,
			Buckets: 256, Keys: 128, LookupPct: 70, KeyWords: 4, Seed: 1},
		StringMatch: &StringMatchConfig{Comparisons: 300, FillerPerOp: 40,
			Dictionary: 32, MinWords: 4, MaxWords: 24, SharedPrefix: 3, Seed: 1},
		RegexMatch: &RegexMatchConfig{Pattern: "[ab]*abb", Matches: 300, FillerPerOp: 40,
			Inputs: 32, MaxLen: 28, Seed: 1},
		MultiTCA: &MultiTCAConfig{Functions: GreenDroidFunctions(), Calls: 120, FillerPerCall: 200, Seed: 1},
		DAEStream: &DAEStreamConfig{Streams: 12, WordsPerStream: 32, FillerPerOp: 30,
			ChunkWords: 8, ComputePerChunk: 4, Startup: 40, Seed: 1},
		LoopNest: &LoopNestConfig{Calls: 12, FillerPerOp: 25, Trips: 8, Depth: 2,
			IterLatency: 1, ConfigLatency: 20, Seed: 1},
	}
	i, ok := configField(kind)
	if !ok {
		return Spec{}, fmt.Errorf("workload: unknown workload kind %q", kind)
	}
	s := Spec{Kind: kind}
	reflect.ValueOf(&s).Elem().Field(i).Set(reflect.ValueOf(all).Field(i))
	return s, nil
}

// Kinds lists every workload kind, in Spec field order. Every field
// after Kind is a config pointer; the helpers below rely on that.
func Kinds() []string {
	t := reflect.TypeOf(Spec{})
	kinds := make([]string, 0, t.NumField()-1)
	for i := 1; i < t.NumField(); i++ {
		kinds = append(kinds, fieldKind(t.Field(i)))
	}
	return kinds
}

// check enforces the spec's shape: a known kind whose config field is
// set, and no other config field set. A stray config would otherwise be
// silently ignored — and would key a second copy of the same workload
// wherever the spec's encoding is the cache key.
func (s Spec) check() error {
	i, ok := configField(s.Kind)
	if !ok {
		return fmt.Errorf("workload: unknown workload kind %q", s.Kind)
	}
	v := reflect.ValueOf(s)
	if v.Field(i).IsNil() {
		return fmt.Errorf("workload: workload kind %q without config", s.Kind)
	}
	for j := 1; j < v.NumField(); j++ {
		if j != i && !v.Field(j).IsNil() {
			return fmt.Errorf("workload: workload kind %q with stray %q config", s.Kind, fieldKind(v.Type().Field(j)))
		}
	}
	return nil
}

// configField returns the index of kind's config field in Spec.
func configField(kind string) (int, bool) {
	t := reflect.TypeOf(Spec{})
	for i := 1; i < t.NumField(); i++ {
		if fieldKind(t.Field(i)) == kind {
			return i, true
		}
	}
	return 0, false
}

// fieldKind is the kind a config field holds: its JSON name.
func fieldKind(f reflect.StructField) string {
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return name
}
