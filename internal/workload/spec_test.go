package workload_test

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestDefaultSpecDigests pins each registry default's L_T run digest on
// the HP core — what `tcasim -workload K -mode L_T -dump-scenario`
// prints — so the default configs, the generators and the digest
// encoding all stay put.
func TestDefaultSpecDigests(t *testing.T) {
	want := map[string]string{
		"synthetic":   "0010f6ed02037421f98b1642e795cafe5bd751865bc296a03718b35513754ae8",
		"heap":        "a2ac1fd072dcd158cf8edecd8e68a5d1bf16764644787603421c86f2ac81b8bc",
		"matmul":      "993a32ee5841d1a0ea1fd870c8095c7575f66d0040f96d7b848b699c067bb5f5",
		"kvstore":     "a8d89832ff0c46b0559f8b2a28e3476d202a718ed1e9f597b0bc481dac0a8313",
		"stringmatch": "c41ae834421377e0a17cbafc53ca209acfd4d67a2b5e7b4397cb032690b0f956",
		"regexmatch":  "efbedc706734be53f342994d9febcb81b7e656bf783019d7e602672f12dee989",
		"multitca":    "722f98299d6c74a03da60868f8450244d692f9230e3f0fbdb55e2d714c6d6ee2",
		"daestream":   "20bd0bf40bf568c3f4e7df8eaa27c894c351292d12ef1bc272e9f15c1a27e915",
		"loopnest":    "ed9d86c5f40929aef45b3b348f7a1c0eb65948fd8cd7c3a72112979938889918",
	}
	kinds := workload.Kinds()
	if len(kinds) != len(want) {
		t.Errorf("registry lists %d kinds, golden table %d", len(kinds), len(want))
	}
	for _, kind := range kinds {
		spec, err := workload.DefaultSpec(kind)
		if err != nil {
			t.Fatal(err)
		}
		w, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		cfg := sim.HighPerfConfig()
		cfg.Mode = accel.LT
		run := scenario.Spec{
			Config:    cfg,
			Program:   w.Accelerated,
			NewDevice: w.NewDevice,
			DeviceKey: w.DeviceKey,
			MaxCycles: 1 << 40,
		}
		if got := run.Digest().String(); got != want[kind] {
			t.Errorf("%s: default L_T digest %s, want %s", kind, got, want[kind])
		}
	}
}
