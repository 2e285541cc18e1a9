package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fixtureLoader builds one loader rooted at the real module so fixture
// packages can import repro/internal/... for the type-sensitive rules.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

var wantMarker = regexp.MustCompile(`want:([A-Z0-9]+)`)

// wantDiags reads `want:RULE` markers from a fixture file: each occurrence
// expects one diagnostic of that rule on that line.
func wantDiags(t *testing.T, filename string) []string {
	t.Helper()
	data, err := os.ReadFile(filename)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range wantMarker.FindAllStringSubmatch(line, -1) {
			want = append(want, fmt.Sprintf("%d:%s", i+1, m[1]))
		}
	}
	return want
}

// gotDiags renders diagnostics as "line:RULE" for comparison.
func gotDiags(diags []Diagnostic) []string {
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d:%s", d.Pos.Line, d.Rule))
	}
	return got
}

// TestRuleFixtures runs each rule over its deliberately-broken fixture and
// compares against the want: markers embedded in the fixture source —
// the golden contract for R1–R5 and the suppression machinery.
func TestRuleFixtures(t *testing.T) {
	cases := []struct {
		name    string
		file    string
		as      string // module-relative package path the fixture poses as
		ignores bool   // expectations come from markers unless set: expect none
		rules   string // comma-separated rule IDs to run (default: all)
	}{
		{name: "R1-in-scope", file: "r1.go", as: "internal/workload/fixture"},
		{name: "R1-out-of-scope", file: "r1.go", as: "internal/textplot/fixture", ignores: true},
		{name: "R2-in-scope", file: "r2.go", as: "internal/sim/fixture"},
		{name: "R2-allowed-in-cmd", file: "r2.go", as: "cmd/fixture", ignores: true},
		{name: "R2-allowed-in-runner", file: "r2.go", as: "internal/runner/fixture", ignores: true},
		{name: "R3-everywhere", file: "r3.go", as: "internal/anything/fixture"},
		{name: "R4-in-scope", file: "r4.go", as: "internal/core/fixture"},
		{name: "R4-out-of-scope", file: "r4.go", as: "internal/isa/fixture", ignores: true},
		{name: "R5-in-scope", file: "r5.go", as: "internal/experiments/fixture"},
		{name: "R5-allowed-in-defining-pkg", file: "r5.go", as: "internal/sim/fixture", ignores: true},
		{name: "R6-in-scope", file: "r6.go", as: "internal/sim/fixture"},
		{name: "R6-out-of-scope", file: "r6.go", as: "internal/mem/fixture", ignores: true},
		{name: "R7-everywhere", file: "r7.go", as: "internal/experiments/fixture"},
		{name: "R7-in-defining-pkg", file: "r7.go", as: "internal/scenario/fixture"},
		{name: "R8-in-scope", file: "r8.go", as: "internal/sim/fixture8"},
		{name: "R8-out-of-scope", file: "r8.go", as: "internal/experiments/fixture8", ignores: true},
		{name: "R8-spec-in-scope", file: "r8spec.go", as: "internal/scenario/fixturespec"},
		{name: "R8-json-in-scope", file: "r8json.go", as: "internal/scenario/fixturejson"},
		{name: "R8-json-clean", file: "r8jsonclean.go", as: "internal/scenario/fixturejsonclean"},
		{name: "R8-renamed-encoder", file: "r8renamed.go", as: "internal/sim/fixturerenamed"},
		{name: "R8R9-checkpoint-in-scope", file: "r8ckpt.go", as: "internal/sim/fixtureckpt"},
		{name: "R8R9-checkpoint-out-of-scope", file: "r8ckpt.go", as: "internal/experiments/fixtureckpt", ignores: true},
		{name: "R8-walk-in-scope", file: "r8walk.go", as: "internal/mem/fixturewalk"},
		{name: "R8-walk-out-of-scope", file: "r8walk.go", as: "internal/experiments/fixturewalk", ignores: true},
		{name: "R9-in-scope", file: "r9.go", as: "internal/sim/fixture9", rules: "R9"},
		{name: "R9-out-of-scope", file: "r9.go", as: "internal/textplot/fixture9", ignores: true},
		{name: "R9-devsnap-in-scope", file: "rdevsnap.go", as: "internal/accel/fixturedev"},
		{name: "R9-devsnap-out-of-scope", file: "rdevsnap.go", as: "internal/workload/fixturedev", ignores: true},
		{name: "R10-everywhere", file: "r10.go", as: "internal/anything/fixture10"},
		{name: "R11-in-staticmodel", file: "r11.go", as: "internal/staticmodel/fixture11"},
		{name: "R11-in-interval", file: "r11.go", as: "internal/interval/fixture11"},
		{name: "R11-out-of-scope", file: "r11.go", as: "internal/experiments/fixture11", ignores: true},
		{name: "R1R2-interproc-in-scope", file: "interproc.go", as: "internal/sim/fixtureip"},
		{name: "R1R2-interproc-out-of-scope", file: "interproc.go", as: "cmd/fixtureip", ignores: true},
		{name: "R12-in-accel", file: "r12.go", as: "internal/accel", rules: "R12"},
		{name: "R12-out-of-scope", file: "r12.go", as: "internal/workload/fixtureaccel", ignores: true, rules: "R12"},
		{name: "R14-everywhere", file: "r14.go", as: "internal/experiments/fixture14"},
	}
	loader := fixtureLoader(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			file := filepath.Join("testdata", tc.file)
			pkg, err := loader.LoadFiles(loader.ModulePath+"/"+tc.as, []string{file})
			if err != nil {
				t.Fatal(err)
			}
			rules := AllRules()
			if tc.rules != "" {
				rules = nil
				for _, id := range strings.Split(tc.rules, ",") {
					r := RuleByID(id)
					if r == nil {
						t.Fatalf("unknown rule %q in case", id)
					}
					rules = append(rules, r)
				}
			}
			diags := Run([]*Package{pkg}, rules)
			var want []string
			if !tc.ignores {
				want = wantDiags(t, file)
			}
			compareDiags(t, want, diags)
		})
	}
}

// TestSuppressions exercises both //lint:ignore placements, multi-rule
// directives, and the R0 malformed-directive diagnostic.
func TestSuppressions(t *testing.T) {
	loader := fixtureLoader(t)
	file := filepath.Join("testdata", "suppress.go")
	pkg, err := loader.LoadFiles(loader.ModulePath+"/internal/sim/fixture6", []string{file})
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, AllRules())

	want := wantDiags(t, file)
	// The malformed directive's own line is located by its sentinel token
	// (a marker comment cannot share a line with the directive).
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, "lint:ignore MALFORMEDFIXTURE") {
			want = append(want, fmt.Sprintf("%d:R0", i+1))
		}
	}
	compareDiags(t, want, diags)
}

func compareDiags(t *testing.T, want []string, diags []Diagnostic) {
	t.Helper()
	got := gotDiags(diags)
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(want, " ") != strings.Join(got, " ") {
		var lines []string
		for _, d := range diags {
			lines = append(lines, d.String())
		}
		t.Errorf("diagnostics mismatch\n want: %v\n  got: %v\nfull output:\n%s",
			want, got, strings.Join(lines, "\n"))
	}
}

// TestRuleMetadata guards the published rule catalog: stable IDs, names
// and docs that LINT.md documents.
func TestRuleMetadata(t *testing.T) {
	wantIDs := []string{"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10", "R11", "R12", "R13", "R14"}
	rules := AllRules()
	if len(rules) != len(wantIDs) {
		t.Fatalf("AllRules: got %d rules, want %d", len(rules), len(wantIDs))
	}
	for i, r := range rules {
		if r.ID != wantIDs[i] {
			t.Errorf("rule %d: ID %q, want %q", i, r.ID, wantIDs[i])
		}
		if r.Name == "" || r.Doc == "" {
			t.Errorf("rule %s: empty Name or Doc", r.ID)
		}
		if r.Check == nil {
			t.Errorf("rule %s: nil Check", r.ID)
		}
		if RuleByID(r.ID) != r {
			t.Errorf("RuleByID(%q) did not return the rule", r.ID)
		}
	}
	if RuleByID("nope") != nil {
		t.Error("RuleByID of unknown ID should be nil")
	}
}
