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

// TestDefaultSpecMeasureDigests pins each registry default's measure
// digest on the HP core. The store keys measure blobs on it, so a move
// here orphans every cached measurement.
func TestDefaultSpecMeasureDigests(t *testing.T) {
	want := map[string]string{
		"synthetic":   "6e3ec406a98fa54723fedc3884ff1a45adf2b7bf69d8bdd0d0336d28e8b4a483",
		"heap":        "b8da940f7a2f39d5d63f20914703e181135ae377f708750a21ee84328dd020a3",
		"matmul":      "25aeed1b638d7f53955b15da97a8148d823b7f1b3100ad0f1cdc60e27d75670c",
		"kvstore":     "236a02d09593032b7d40d4661b3541f105e08b248b38099055b2b9ae44f85c09",
		"stringmatch": "0a54785b1a0b8a8c08d074cc3985d76f5c3653482faae71c611f1c2ac722c5a9",
		"regexmatch":  "d35f41114a18b2645c1c34430bc34e2bcce21d4650a36b1140794ce34c917f3e",
		"multitca":    "556b9275be67de709903757bb511bb1e6740e37fffd4afb1807dac4a7c86d7cd",
		"daestream":   "40eefd66f7f7ff5698286a2652ad494bb200da3120d737656d476ac635f13871",
		"loopnest":    "571178fcd29daefdc26addb42c36c228d706fa3a767e2f47813903a6c2b332e4",
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
		ms := scenario.MeasureSpec{Config: sim.HighPerfConfig(), Workload: w, MaxCycles: 4_000_000_000}
		if got := ms.Digest().String(); got != want[kind] {
			t.Errorf("%s: default measure digest %s, want %s", kind, got, want[kind])
		}
	}
}
