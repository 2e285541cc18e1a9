package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/accel"
)

// goldenStats pins absolute simulated timing: the SHA-256 of the JSON
// encoding of Stats (struct fields in declaration order, so equal Stats
// give equal bytes) for every standard workload's baseline program and
// all four TCA modes, plus one partial-speculation and one conservative
// load-ordering run. The FF, checkpoint and engine suites compare the
// simulator with itself, so a change that reorders issue would pass them
// all; this table is what catches it. Runs record accel events and the
// first 300 pipe events, so per-instruction timing is pinned too.
//
// A deliberate timing change regenerates the table from the failure
// messages, which print each case's new line.
var goldenStats = map[string]string{
	"synthetic-baseline":      "6d33b7520495c1cb13c759e2b23733204a91ec283ca0816bf0e29bcb79f22355",
	"synthetic-L_T":           "f97cd573161605c6655208bcb428416ccb7f3e7955824a698974681343ca2f69",
	"synthetic-NL_T":          "8e9fc7a890aa9fbdb95126cea5c2b8466225324716f4340f20ff5f7848eae6d7",
	"synthetic-L_NT":          "e541ed984195899d81cd29766a253a82abfe9419640caf42ba5b6ea09f18e4bf",
	"synthetic-NL_NT":         "3562f3353697844562e5ca5bc536fa0fa4f0a7b71f163420d2138b65c1c647f7",
	"heap-baseline":           "a8c2f5ca6d44c8a0cbac1bab92cb20d4ba6c952f6262286dd41a110ed162e6a4",
	"heap-L_T":                "31af1776dd309e8d6c4cdcc2d96bd5afd887f4184a5ea6015a459444e0b545a9",
	"heap-NL_T":               "dec24140f8f7c83b2ed4d727e52a4784d25ec5adb3103c1a671121dcb0e18555",
	"heap-L_NT":               "afe161896f975f098d8fec84c2710d3b31af6061a51c15bc01eaa32c36f63155",
	"heap-NL_NT":              "071dcd61f319126a48ea15df5ad0e46448b833ace9cba3b0f073ed18700cc080",
	"matmul-baseline":         "84956c575bbb4ddea6d2f4fa8a1c3397153fa02d74cab96f4f06b4f22dff7f07",
	"matmul-L_T":              "a0f5588ed004cf5a0a57092a3ca38e44dd46b7dcc3f494b20879b122d8f1414f",
	"matmul-NL_T":             "1f5126795d923ee3e82519b1767b8ca57a87502308b37d27fa1cbb97341af176",
	"matmul-L_NT":             "5702a9a9b562aa2f20c669de893fdef7c38822500d1899c4d269e47833b80196",
	"matmul-NL_NT":            "4013825539122dbebe254f65002c06a7e3fe2c61cf3a55552061ac3bd9098ae9",
	"kvstore-baseline":        "003e9119e9dd8d13167eda3c0608a153da163cbda261bb1fa50a12aaec1d6ad9",
	"kvstore-L_T":             "368909e1da2feeac54fce185665c44c29c79dadba60ccfc4f9d141d27ef788e0",
	"kvstore-NL_T":            "699b917910f428e2ddf4efa4e61aa95e403224e725826d876a36ba37a22187f5",
	"kvstore-L_NT":            "06f5af397a3332bacb7d4143114f591878b81ec47724b56c99a76e533b93d083",
	"kvstore-NL_NT":           "d5f530798606ffe30e00a964581f4eb354ea1f901563409f8f01f8ff97008e86",
	"regex-baseline":          "f85c45982fe0447715c27c9e8dbe2c1a540cc2a968ddec3e6b471853d9a0d862",
	"regex-L_T":               "1f7cc6405be01936e4c1d6c04199ff42ab99b1a16979d11bb64bac0c2fd3fedc",
	"regex-NL_T":              "c8bfc28b2de7f601663e8034a94ab3bd1352b349097273de3e2f8a31d546c678",
	"regex-L_NT":              "6627b9220b87cfd335828df1a89fb35860609ab99cc72654808a187e8ce43478",
	"regex-NL_NT":             "d83713520770384178c78e91971d8effafd478c6226692d2e700b2380024a556",
	"stringmatch-baseline":    "245bbca32f69d9afe89cfbcb0c18ebadac83d95d55dcb1f88558c807fde58bd8",
	"stringmatch-L_T":         "209bbd74200f045a1ac35b5411df6de14447a902433d8995cd83d9b9cd56ba63",
	"stringmatch-NL_T":        "caa3497f0319ea52937d76edabe5d02e8c6f370ab9b8c6fa83d06dfd40e233ea",
	"stringmatch-L_NT":        "55d94fc2a111e782a59ac0839c821232004eb23faea83a72e5c28afcc1002086",
	"stringmatch-NL_NT":       "63e1f592eec00b62c6630cf50bec13bdcd3fc16de6284fe279d01788156eaf13",
	"multitca-baseline":       "e0f94331b6c5f502705933039a96856b35a8e5c7c8d1a49478ffc62719f88a5a",
	"multitca-L_T":            "5c938897c1eae8b2e1d7139720bb67cf2f36a7a9a7c57a549cd7c7a281143e27",
	"multitca-NL_T":           "94010d9c8ed8d45d782bd5e4536f5f7082c257ed0b0b98a9d3274fbb052e3d8c",
	"multitca-L_NT":           "9e0be5c53d6e0f3cfb03fd47c6cbb6d0173b1a03e73a572179034e0e64cc59a5",
	"multitca-NL_NT":          "d4949dea5c39beadd505031d7558be135810009fdc6e1ff706db8a76d485917b",
	"partial-speculation":     "2dd6e959ce461940855ff8b4892f25d1d581304b05f048c9e8eb1da28c57a384",
	"conservative-load-order": "4e60eb584fc56983f330affa4b9892842d60ce75013f3c7edc5b1bda0de18c00",
}

// statsDigest is the SHA-256 of the JSON-encoded statistics.
func statsDigest(t *testing.T, s Stats) string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func checkGolden(t *testing.T, name string, s Stats) {
	t.Helper()
	want, ok := goldenStats[name]
	if !ok {
		t.Fatalf("no golden entry for %q", name)
	}
	if got := statsDigest(t, s); got != want {
		t.Errorf("%s: Stats digest changed (cycles=%d committed=%d)\n\t%q: %q,",
			name, s.Cycles, s.Committed, name, got)
	}
}

func TestStandardWorkloadStatsGolden(t *testing.T) {
	seen := 0
	var multi stdWorkload
	for _, sw := range standardWorkloads(t) {
		if sw.name == "multitca" {
			multi = sw
		}
		traced := sw.cfg
		traced.RecordAccelEvents = true
		traced.PipeTraceLimit = 300
		t.Run(sw.name+"-baseline", func(t *testing.T) {
			c := ckptCase{cfg: traced, prog: sw.w.Baseline}
			res, err := c.newCore(t).Run(ckptBudget)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, sw.name+"-baseline", res.Stats)
		})
		seen++
		for _, m := range accel.AllModes {
			name := fmt.Sprintf("%s-%s", sw.name, m)
			t.Run(name, func(t *testing.T) {
				cfg := traced
				cfg.Mode = m
				c := ckptCase{cfg: cfg, prog: sw.w.Accelerated, dev: sw.w.NewDevice}
				res, err := c.newCore(t).Run(ckptBudget)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, name, res.Stats)
			})
			seen++
		}
	}

	// The confidence gate must actually hold invocations, or the case
	// pins nothing the mode runs above do not.
	t.Run("partial-speculation", func(t *testing.T) {
		cfg := HighPerfConfig()
		cfg.Mode = accel.LT
		cfg.PartialSpeculation = true
		cfg.Predictor = PredictorConfig{Kind: "bimodal"}
		cfg.RecordAccelEvents = true
		cfg.PipeTraceLimit = 300
		core, err := New(cfg, partialProgram(300), heapDev())
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(ckptBudget)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.AccelConfidenceWait == 0 || res.Stats.Squashed == 0 {
			t.Fatalf("gate never engaged (wait=%d squashed=%d)",
				res.Stats.AccelConfidenceWait, res.Stats.Squashed)
		}
		checkGolden(t, "partial-speculation", res.Stats)
	})
	seen++

	// Conservative ordering must change timing on the chosen workload,
	// or the case pins nothing the default-ordering run does not.
	t.Run("conservative-load-order", func(t *testing.T) {
		run := func(conservative bool) Stats {
			cfg := multi.cfg
			cfg.Mode = accel.LT
			cfg.ConservativeLoadOrdering = conservative
			cfg.RecordAccelEvents = true
			cfg.PipeTraceLimit = 300
			c := ckptCase{cfg: cfg, prog: multi.w.Accelerated, dev: multi.w.NewDevice}
			res, err := c.newCore(t).Run(ckptBudget)
			if err != nil {
				t.Fatal(err)
			}
			return res.Stats
		}
		cons := run(true)
		if cons.Cycles == run(false).Cycles {
			t.Fatal("conservative load ordering did not change the cycle count")
		}
		checkGolden(t, "conservative-load-order", cons)
	})
	seen++

	if seen != len(goldenStats) {
		t.Errorf("ran %d golden cases, table has %d", seen, len(goldenStats))
	}
}
