package lint

import (
	"strings"
	"testing"
)

// TestSimlintCleanOnRepo is the lint contract as a tier-1 test: the whole
// module must pass every rule, so `go test ./...` fails on a new
// determinism hazard even when nobody runs `make lint`. Equivalent to
// `go run ./cmd/simlint ./...` exiting 0.
func TestSimlintCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	loader := fixtureLoader(t)
	paths, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 15 {
		t.Fatalf("Expand(./...) found only %d packages — discovery is broken: %v", len(paths), paths)
	}
	var pkgs []*Package
	for _, p := range paths {
		if strings.Contains(p, "testdata") {
			t.Fatalf("Expand must skip testdata, found %s", p)
		}
		pkg, err := loader.Load(p)
		if err != nil {
			t.Fatalf("load %s: %v", p, err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags := Run(pkgs, AllRules())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("%d diagnostic(s): fix them or add //lint:ignore with a reason (see LINT.md)", len(diags))
	}
}

// TestExpandForms covers the loader's pattern grammar.
func TestExpandForms(t *testing.T) {
	loader := fixtureLoader(t)
	for _, tc := range []struct {
		pattern string
		want    string
	}{
		{"./internal/sim", "repro/internal/sim"},
		{"./internal/sim/", "repro/internal/sim"},
		{"internal/sim", "repro/internal/sim"},
		{"repro/internal/sim", "repro/internal/sim"},
	} {
		got, err := loader.Expand([]string{tc.pattern})
		if err != nil {
			t.Fatalf("Expand(%q): %v", tc.pattern, err)
		}
		if len(got) != 1 || got[0] != tc.want {
			t.Errorf("Expand(%q) = %v, want [%s]", tc.pattern, got, tc.want)
		}
	}
	walked, err := loader.Expand([]string{"./internal/..."})
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, p := range walked {
		found[p] = true
	}
	for _, want := range []string{"repro/internal/sim", "repro/internal/lint", "repro/internal/mem"} {
		if !found[want] {
			t.Errorf("Expand(./internal/...) missing %s in %v", want, walked)
		}
	}
}
