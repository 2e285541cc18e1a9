package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadModuleAt loads every package of the standalone fixture module
// rooted at dir (which must contain its own go.mod).
func loadModuleAt(t *testing.T, dir string) []*Package {
	t.Helper()
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			t.Fatalf("load %s: %v", p, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// TestRegistryCleanModule pins the fixture module as fully wired: every
// family appears in every surface, so the whole rule set is silent.
func TestRegistryCleanModule(t *testing.T) {
	pkgs := loadModuleAt(t, filepath.Join("testdata", "r13mod"))
	diags := Run(pkgs, AllRules())
	if len(diags) != 0 {
		var lines []string
		for _, d := range diags {
			lines = append(lines, d.String())
		}
		t.Fatalf("clean module should produce no diagnostics, got %d:\n%s",
			len(diags), strings.Join(lines, "\n"))
	}
}

// TestRegistryBrokenModule runs R13 over the half-wired module and
// checks the want: markers plus the reported gaps.
func TestRegistryBrokenModule(t *testing.T) {
	dir := filepath.Join("testdata", "r13modbroken")
	pkgs := loadModuleAt(t, dir)
	diags := Run(pkgs, []*Rule{RuleByID("R13")})
	want := wantDiags(t, filepath.Join(dir, "internal", "accel", "devices.go"))
	compareDiags(t, want, diags)
	if len(diags) == 1 {
		for _, frag := range []string{"Gamma", "WalkState", "workload.Spec.Build"} {
			if !strings.Contains(diags[0].Message, frag) {
				t.Errorf("diagnostic %q missing %q", diags[0].Message, frag)
			}
		}
	}
}

// TestRegistrySurfaceDeletion is the acceptance proof for R13: deleting
// any one integration surface of a wired family makes the rule fire.
// Each scenario copies the clean module to a temp dir, drops the lines
// tagged r13drop:<tag> (or whole files), reloads, and asserts exactly
// one R13 diagnostic naming the family and the missing surface.
func TestRegistrySurfaceDeletion(t *testing.T) {
	scenarios := []struct {
		name      string
		tags      []string // drop lines containing r13drop:<tag>
		dropFiles []string // module-relative files to omit entirely
		family    string
		want      string // substring of the R13 message
	}{
		{
			name:   "walk-state",
			tags:   []string{"alpha-walk"},
			family: "Alpha",
			want:   "WalkState method",
		},
		{
			// Spec.Build sits in the same package and reaches Beta's
			// keyed constructor; only Alpha's own constructor decides.
			name:   "device-key",
			tags:   []string{"alpha-key"},
			family: "Alpha",
			want:   "canonical DeviceKey",
		},
		{
			// The wire Build switch is the registry's: dropping Alpha's
			// case leaves the kind decodable but unbuildable.
			name:   "serve-wire-kind",
			tags:   []string{"alpha-registry"},
			family: "Alpha",
			want:   "workload.Spec.Build",
		},
		{
			// cmd/tcasim lists and builds kinds from the registry alone:
			// dropping Alpha's config field and Build case unregisters it.
			name:   "tcasim-registration",
			tags:   []string{"alpha-kind", "alpha-registry"},
			family: "Alpha",
			want:   "workload.Spec.Build",
		},
		{
			// Deleting the constructor orphans its registry case too;
			// the constructor gap is what the message must name.
			name:   "workload-constructor",
			tags:   []string{"alpha-workload", "alpha-registry"},
			family: "Alpha",
			want:   "workload constructor",
		},
		{
			name:      "engine-occupancy",
			dropFiles: []string{filepath.Join("internal", "experiments", "sweep.go")},
			family:    "Beta",
			want:      "EngineOccupancy",
		},
	}
	src := filepath.Join("testdata", "r13mod")
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			dir := copyModuleDropping(t, src, sc.tags, sc.dropFiles)
			pkgs := loadModuleAt(t, dir)
			diags := Run(pkgs, []*Rule{RuleByID("R13")})
			if len(diags) != 1 {
				var lines []string
				for _, d := range diags {
					lines = append(lines, d.String())
				}
				t.Fatalf("want exactly 1 R13 diagnostic, got %d:\n%s",
					len(diags), strings.Join(lines, "\n"))
			}
			msg := diags[0].Message
			if !strings.Contains(msg, sc.family) {
				t.Errorf("diagnostic %q does not name family %s", msg, sc.family)
			}
			if !strings.Contains(msg, sc.want) {
				t.Errorf("diagnostic %q does not name the missing surface %q", msg, sc.want)
			}
		})
	}
}

// copyModuleDropping copies the module at src into a temp dir, omitting
// the listed files and any line tagged with one of the r13drop tags.
func copyModuleDropping(t *testing.T, src string, tags, dropFiles []string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if info.IsDir() {
			if rel == "." {
				return nil
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		for _, drop := range dropFiles {
			if rel == drop {
				return nil
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var kept []string
		for _, line := range strings.Split(string(data), "\n") {
			dropLine := false
			for _, tag := range tags {
				if strings.Contains(line, "r13drop:"+tag) {
					dropLine = true
					break
				}
			}
			if !dropLine {
				kept = append(kept, line)
			}
		}
		return os.WriteFile(filepath.Join(dst, rel), []byte(strings.Join(kept, "\n")), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}
