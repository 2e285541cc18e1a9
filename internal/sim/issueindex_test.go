package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/accel"
	"repro/internal/isa"
)

// checkIssueIndex asserts that the ROB's candidate and writer sets equal a
// from-scratch walk of the resident entries, and that the issue-queue
// count equals the number of waiting entries.
func checkIssueIndex(t *testing.T, c *Core) {
	t.Helper()
	q := c.rob
	cand := make(slotSet, len(q.cand))
	writers := make(slotSet, len(q.writers))
	waiting := 0
	for i := 0; i < q.len(); i++ {
		h := q.hotAt(i)
		writer := h.op.IsStore() || h.op == isa.OpAccel
		if writer {
			writers.add(q.slot(i))
		}
		if h.state == sWaiting {
			waiting++
			if h.pendMask == 0 || writer {
				cand.add(q.slot(i))
			}
		}
	}
	for w := range cand {
		if q.cand[w] != cand[w] || q.writers[w] != writers[w] {
			t.Fatalf("cycle %d, word %d: cand %#x want %#x, writers %#x want %#x (head %d, %d resident)",
				c.Cycle(), w, q.cand[w], cand[w], q.writers[w], writers[w], q.head, q.len())
		}
	}
	if waiting != c.iqCount {
		t.Fatalf("cycle %d: %d waiting entries, iqCount %d", c.Cycle(), waiting, c.iqCount)
	}
}

// stepChecked runs c one cycle boundary at a time, checking the issue
// index after every step. Halfway through (at cycle resumeAt) it encodes
// a checkpoint, decodes it, and continues on a core resumed from it.
func stepChecked(t *testing.T, c ckptCase, resumeAt int64) *Result {
	t.Helper()
	core := c.newCore(t)
	resumed := false
	for {
		paused, err := core.RunTo(ckptBudget, core.Cycle()+1)
		if err != nil {
			t.Fatalf("RunTo: %v", err)
		}
		checkIssueIndex(t, core)
		if !paused {
			break
		}
		if !resumed && core.Cycle() >= resumeAt {
			resumed = true
			ck, err := core.Checkpoint()
			if err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			ck2, err := UnmarshalCheckpoint(ck.MarshalBinary())
			if err != nil {
				t.Fatalf("UnmarshalCheckpoint: %v", err)
			}
			var dev isa.AccelDevice
			if c.dev != nil {
				dev = c.dev()
			}
			if core, err = NewFromCheckpoint(c.cfg, c.prog, dev, ck2); err != nil {
				t.Fatalf("NewFromCheckpoint: %v", err)
			}
			checkIssueIndex(t, core)
		}
	}
	if !resumed {
		t.Fatalf("run ended at cycle %d before the resume point %d", core.Cycle(), resumeAt)
	}
	res, err := core.Run(ckptBudget)
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	return res
}

// TestIssueIndexInvariant steps every standard workload (baseline and all
// four modes) plus a partial-speculation run cycle by cycle and demands
// the incrementally maintained issue indexes match a from-scratch ROB
// walk after every cycle, across mispredict squashes and a mid-run
// checkpoint encode/decode/resume. Each stepped run must also finish
// identically to an uninterrupted one.
func TestIssueIndexInvariant(t *testing.T) {
	var cases []ckptCase
	for _, sw := range standardWorkloads(t) {
		cases = append(cases, ckptCase{name: sw.name + "-baseline", cfg: sw.cfg, prog: sw.w.Baseline})
		for _, m := range accel.AllModes {
			cfg := sw.cfg
			cfg.Mode = m
			cases = append(cases, ckptCase{name: fmt.Sprintf("%s-%s", sw.name, m),
				cfg: cfg, prog: sw.w.Accelerated, dev: sw.w.NewDevice})
		}
	}
	partial := HighPerfConfig()
	partial.Mode = accel.LT
	partial.PartialSpeculation = true
	partial.Predictor = PredictorConfig{Kind: "bimodal"}
	cases = append(cases, ckptCase{name: "partial-speculation", cfg: partial,
		prog: partialProgram(300), dev: heapDev})

	var squashed, accelSquashed uint64
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref, err := c.newCore(t).Run(ckptBudget)
			if err != nil {
				t.Fatal(err)
			}
			got := stepChecked(t, c, ref.Stats.Cycles/2)
			assertSameResult(t, "stepped", ref, got)
			squashed += got.Stats.Squashed
			accelSquashed += got.Stats.AccelSquashed
		})
	}
	if squashed == 0 || accelSquashed == 0 {
		t.Errorf("no squash exercised the indexes (squashed %d, accel squashed %d)", squashed, accelSquashed)
	}
}

// TestROBSlotWalks checks next and prev against a linear walk over random
// sets, windows and ring sizes, including rings smaller than one word and
// windows that wrap the ring's end.
func TestROBSlotWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []int{5, 32, 64, 100, 128, 192, 256} {
		q := newROBQueue(capacity)
		size := q.mask + 1
		for trial := 0; trial < 200; trial++ {
			q.head = rng.Intn(size)
			q.count = rng.Intn(capacity + 1)
			s := make(slotSet, len(q.cand))
			member := make([]bool, q.count)
			// Residents are set at random; slots outside the window
			// are set too, and the walks must ignore them.
			for slot := 0; slot < size; slot++ {
				if rng.Intn(3) == 0 {
					s.add(slot)
				}
			}
			for i := range member {
				member[i] = s[q.slot(i)>>6]&(1<<uint(q.slot(i)&63)) != 0
			}
			for i := 0; i <= q.count; i++ {
				want := -1
				for j := i; j < q.count; j++ {
					if member[j] {
						want = j
						break
					}
				}
				if got := q.next(s, i); got != want {
					t.Fatalf("size %d head %d count %d: next(%d) = %d, want %d", size, q.head, q.count, i, got, want)
				}
			}
			for i := -1; i < q.count; i++ {
				want := -1
				for j := i; j >= 0; j-- {
					if member[j] {
						want = j
						break
					}
				}
				if got := q.prev(s, i); got != want {
					t.Fatalf("size %d head %d count %d: prev(%d) = %d, want %d", size, q.head, q.count, i, got, want)
				}
			}
		}
	}
}
