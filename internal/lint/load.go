package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path  string // full import path, e.g. "repro/internal/sim"
	Rel   string // module-relative path, e.g. "internal/sim" ("" for the root)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	loader *Loader
}

// Dep returns the analyzed module-internal package at the given import
// path — the package itself, or a dependency that was loaded while
// type-checking it. The coverage rules use it to read declarations that
// live next to the types they audit (exemption manifests on field
// declarations, the erasure writes in Canonical methods). Returns nil
// for unknown and non-module paths; callers must tolerate that.
func (p *Package) Dep(path string) *Package {
	if path == p.Path {
		return p
	}
	if p.loader == nil {
		return nil
	}
	return p.loader.modCache[path]
}

// Loader resolves and type-checks packages of one module entirely from
// source: module-internal imports are parsed from the module tree and
// standard-library imports through go/importer's source compiler, so no
// compiled export data, module cache or network is needed. Test files are
// excluded — the contract the rules enforce is about simulation code, and
// tests legitimately use wall clocks and ad-hoc randomness.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset *token.FileSet
	std  types.ImporterFrom
	// stdCache holds imported non-module packages; modCache holds fully
	// analyzed module packages. Module packages are checked exactly once —
	// re-checking a path would mint a second types.Package for it and
	// break type identity across dependents.
	stdCache map[string]*types.Package
	modCache map[string]*Package
}

// NewLoader locates the module containing dir (walking up to go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       fset,
		std:        std,
		stdCache:   map[string]*types.Package{},
		modCache:   map[string]*Package{},
	}, nil
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// Expand resolves package patterns relative to the module root. Supported
// forms are "./...", "./dir/...", "./dir" and bare module-relative paths;
// "..." walks directories, skipping testdata, hidden and underscore
// entries. The result is sorted and deduplicated.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(rel string) {
		path := l.ModulePath
		if rel != "" && rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			base := filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			err := filepath.Walk(base, func(p string, fi os.FileInfo, err error) error {
				if err != nil {
					return err
				}
				if !fi.IsDir() {
					return nil
				}
				name := fi.Name()
				if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(p) {
					rel, err := filepath.Rel(l.ModuleRoot, p)
					if err != nil {
						return err
					}
					add(rel)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		if strings.HasPrefix(pat, l.ModulePath) {
			pat = strings.TrimPrefix(strings.TrimPrefix(pat, l.ModulePath), "/")
		}
		add(path.Clean(pat))
	}
	sort.Strings(out)
	return out, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if goSource(e.Name()) {
			return true
		}
	}
	return false
}

func goSource(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// Load parses and type-checks the package at the given import path,
// returning a cached result if the path was already loaded (as a target or
// as a dependency of one).
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.modCache[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	var names []string
	for _, e := range ents {
		if goSource(e.Name()) {
			names = append(names, filepath.Join(dir, e.Name()))
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	pkg, err := l.LoadFiles(path, names)
	if err != nil {
		return nil, err
	}
	l.modCache[path] = pkg
	return pkg, nil
}

// LoadFiles type-checks an explicit file list under the given import path.
// Fixture tests use it to place testdata files at chosen module-relative
// paths so path-scoped rules fire.
func (l *Loader) LoadFiles(path string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, typeErrs[0])
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	return &Package{
		Path:   path,
		Rel:    rel,
		Dir:    filepath.Dir(filenames[0]),
		Fset:   l.fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
		loader: l,
	}, nil
}

// Import implements types.Importer for dependencies of checked packages.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom routes module-internal imports to the source tree and
// everything else to the standard-library source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != l.ModulePath && !strings.HasPrefix(path, l.ModulePath+"/") {
		if p, ok := l.stdCache[path]; ok {
			return p, nil
		}
		p, err := l.std.ImportFrom(path, dir, 0)
		if err != nil {
			return nil, err
		}
		l.stdCache[path] = p
		return p, nil
	}
	pkg, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}
