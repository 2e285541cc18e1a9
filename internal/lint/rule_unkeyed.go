package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// canonicalSpecTypes are the structs whose field ORDER carries meaning
// beyond the source: sim.Config and the scenario specs and recipe feed
// the canonical digest encoder field by field, and every driver builds
// them. An unkeyed (positional) composite literal of one of these
// silently reassigns values when a field is inserted — the compiler
// stays happy while runs get mislabeled configurations and digests
// stop meaning what the caller thinks. Keyed literals turn the same
// evolution into a loud compile error or an obvious no-op.
var canonicalSpecTypes = []struct{ pkgSuffix, name, display string }{
	{"internal/sim", "Config", "sim.Config"},
	{"internal/scenario", "Spec", "scenario.Spec"},
	{"internal/scenario", "MeasureSpec", "scenario.MeasureSpec"},
	{"internal/scenario", "Recipe", "scenario.Recipe"},
}

// ruleUnkeyedSpec (R7) flags unkeyed composite literals of the
// canonical spec types, everywhere — including the defining packages,
// whose presets are exactly where a positional literal would rot
// first.
var ruleUnkeyedSpec = &Rule{
	ID:   "R7",
	Name: "unkeyed-spec-literal",
	Doc:  "sim.Config / scenario.Spec / scenario.MeasureSpec / scenario.Recipe literals must use keyed fields; positional literals break silently when the canonical field set evolves",
	Applies: func(rel string) bool {
		return true
	},
	Check: func(pass *Pass) {
		pass.eachFile(func(f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				if len(lit.Elts) == 0 {
					return true // zero value: nothing positional to rot
				}
				if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
					return true
				}
				tv, ok := pass.Pkg.Info.Types[ast.Expr(lit)]
				if !ok || tv.Type == nil {
					return true
				}
				for _, ct := range canonicalSpecTypes {
					if namedValueOf(tv.Type, ct.pkgSuffix, ct.name) {
						pass.Reportf(lit.Pos(),
							"unkeyed composite literal of %s; use keyed fields so the literal survives field-set changes", ct.display)
						return true
					}
				}
				return true
			})
		})
	},
}

// namedValueOf reports whether t is (or aliases) a named struct type
// with the given name whose defining package path ends in pkgSuffix —
// the value-type counterpart of namedPtrTo.
func namedValueOf(t types.Type, pkgSuffix, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != name {
		return false
	}
	p := obj.Pkg().Path()
	return p == pkgSuffix || strings.HasSuffix(p, "/"+pkgSuffix)
}
