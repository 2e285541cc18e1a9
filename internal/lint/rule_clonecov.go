package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// cloneEmitRoots are the cached result types. The scenario store hands
// out Clone()d copies of its canonical in-memory results, so three
// properties must hold for every field: it survives the JSON disk
// round trip (no func/chan), the clone deep-copies it rather than
// aliasing the canonical copy's storage, and something actually reports
// it (a field no emitter reads is dead weight at best and a silently
// dropped measurement at worst).
var cloneEmitRoots = []struct{ pkgSuffix, name string }{
	{"internal/sim", "Stats"},
	{"internal/sim", "Checkpoint"},
	{"internal/scenario", "MeasureRecord"},
}

// ruleCloneCov (R9) runs three sub-checks, partitioned by package so
// each fires exactly once:
//
//   - serializability, in the root's defining package: every exported
//     field reachable from the root must survive the store's JSON round
//     trip (exemptible via //lint:exempt-field R9);
//   - emit coverage, in the defining package, when the root declares a
//     String method (the canonical in-package emitter): every exported
//     direct field must be read by a non-Clone method (String, IPC,
//     CPIStack, ...) or exempted;
//   - clone coverage, wherever a clone function of the root lives
//     (method Clone, or a clone* helper taking the root): reference-
//     bearing fields need an explicit deep-copying assignment — a
//     whole-struct copy or a bare field assignment aliases the slice —
//     and without a whole-struct copy every field must be assigned.
//     Deep-copy correctness is never exemptible; //lint:ignore remains
//     the (visible, counted) escape hatch.
//
// A fourth sub-check, device snapshot coverage, runs under internal/accel
// (see rule_devsnap.go): runtime state a snapshottable device mutates must
// be walked by its WalkState, or carry an exemption manifest — the
// checkpoint-side mirror of clone coverage.
var ruleCloneCov = &Rule{
	ID:   "R9",
	Name: "clone-and-emit-coverage",
	Doc:  "cached result types (sim.Stats, sim.Checkpoint, scenario.MeasureRecord) must be JSON-serializable, deep-copied field-exhaustively by Clone, and fully read by their reporting methods; device runtime state must be walked by WalkState",
	Applies: func(rel string) bool {
		return underAny(rel, "internal/sim", "internal/scenario", "internal/accel")
	},
	Check: checkCloneCoverage,
}

func checkCloneCoverage(pass *Pass) {
	checkDeviceSnapshots(pass)
	for _, rt := range cloneEmitRoots {
		root := lookupNamed(pass, rt.pkgSuffix, rt.name)
		if root == nil {
			continue
		}
		str, ok := root.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		if root.Obj().Pkg() == pass.Pkg.Types {
			checkSerializable(pass, root)
			checkEmitCoverage(pass, root, str)
		}
		checkCloneFuncs(pass, root, str)
	}
}

// checkSerializable walks the full reachable struct closure and flags
// fields whose types cannot round-trip through the JSON store.
func checkSerializable(pass *Pass, root *types.Named) {
	cov := newCoverage(pass)
	cov.addRoots([]*types.Named{root}, nil)
	cov.collectExemptions("R9", append([]*Package{pass.Pkg}, cov.definingPackages()...))
	for _, ct := range cov.orderedTypes() {
		for i := 0; i < ct.str.NumFields(); i++ {
			f := ct.str.Field(i)
			if !f.Exported() || serializable(f.Type()) || cov.isExempt(ct, f.Name()) {
				continue
			}
			pass.Reportf(fieldPos(f),
				"%s.%s has type %s, which does not survive the JSON result store: a disk cache hit would silently drop it; store a serializable stand-in or exempt with `//lint:exempt-field R9 %s.%s <reason>`",
				ct.display(), f.Name(), f.Type().String(), ct.named.Obj().Name(), f.Name())
		}
	}
}

// checkEmitCoverage requires every exported direct field of the root to
// be read by at least one reporting method (any method of the root
// other than Clone). Roots with no reporting methods are not audited —
// their coverage story lives with their emitters' package.
func checkEmitCoverage(pass *Pass, root *types.Named, str *types.Struct) {
	var consumers []*ast.FuncDecl
	pass.eachFile(func(f *ast.File) {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name == "Clone" {
				continue
			}
			if recv := receiverType(pass, fd); recv != nil && types.Identical(recv, root) {
				consumers = append(consumers, fd)
			}
		}
	})
	// The audit engages only when the root declares a String method —
	// the canonical in-package emitter. Roots reported solely by other
	// packages (MeasureRecord's fields feed the experiment tables) have
	// no in-package consumer set to prove exhaustive, so their coverage
	// rests on Clone/serializability here plus the figure goldens there.
	var anchor *ast.FuncDecl
	for _, fd := range consumers {
		if fd.Name.Name == "String" {
			anchor = fd
			break
		}
	}
	if anchor == nil {
		return
	}
	cov := newCoverage(pass)
	cov.addRoots([]*types.Named{root}, func(*coverType, *types.Var) bool { return false })
	cov.collectExemptions("R9", append([]*Package{pass.Pkg}, cov.definingPackages()...))
	for _, fd := range consumers {
		cov.recordReads(fd.Body)
	}
	ct := cov.types[root]
	missing := cov.missingFields(ct, func(f *types.Var) bool {
		return !serializable(f.Type()) // already reported by checkSerializable
	})
	if len(missing) > 0 {
		pass.Reportf(anchor.Name.Pos(),
			"no reporting method of %s reads field(s) %s: the measurement is collected but never emitted; print them (e.g. in String) or exempt with `//lint:exempt-field R9 %s.<Field> <reason>`",
			ct.display(), strings.Join(missing, ", "), root.Obj().Name())
	}
}

// checkCloneFuncs locates the root's clone functions in this package and
// audits their field exhaustiveness.
func checkCloneFuncs(pass *Pass, root *types.Named, str *types.Struct) {
	pass.eachFile(func(f *ast.File) {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var src *types.Var
			switch {
			case fd.Recv != nil && fd.Name.Name == "Clone":
				if recv := receiverType(pass, fd); recv != nil && types.Identical(recv, root) {
					src = funcSignature(pass, fd).Recv()
				}
			case fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "clone"):
				sig := funcSignature(pass, fd)
				if sig == nil {
					continue
				}
				for i := 0; i < sig.Params().Len(); i++ {
					p := sig.Params().At(i)
					if types.Identical(stripPtr(p.Type()), root) {
						src = p
						break
					}
				}
			}
			if src == nil {
				continue
			}
			auditCloneFunc(pass, fd, root, str, src)
		}
	})
}

// auditCloneFunc checks one clone function body against the root's
// direct exported fields.
func auditCloneFunc(pass *Pass, fd *ast.FuncDecl, root *types.Named, str *types.Struct, src *types.Var) {
	wholeCopy := false
	fieldAssign := map[string]ast.Expr{} // field name -> RHS of its assignment
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			rhs := as.Rhs[i]
			// out := src (or out := *src) copies every value field at once.
			if _, isIdent := lhs.(*ast.Ident); isIdent && isWholeCopyOf(pass, rhs, src) {
				wholeCopy = true
			}
			if name := isRootSel(pass, lhs, root); name != "" {
				fieldAssign[name] = rhs
			}
		}
		return true
	})
	var valueMissing []string
	for i := 0; i < str.NumFields(); i++ {
		f := str.Field(i)
		if !f.Exported() {
			continue
		}
		rhs, assigned := fieldAssign[f.Name()]
		if bearsReference(f.Type()) && serializable(f.Type()) {
			switch {
			case !assigned:
				pass.Reportf(fd.Name.Pos(),
					"%s does not deep-copy reference field %s.%s: the value copy aliases the cached canonical slice/map, so a caller's mutation corrupts every later cache hit",
					fd.Name.Name, root.Obj().Name(), f.Name())
			default:
				if name := isRootSel(pass, rhs, root); name == f.Name() {
					pass.Reportf(rhs.Pos(),
						"%s assigns %s.%s straight from the source — that aliases the underlying storage; deep-copy it (append([]T(nil), src.%s...) or a clone helper)",
						fd.Name.Name, root.Obj().Name(), f.Name(), f.Name())
				}
			}
			continue
		}
		if !wholeCopy && !assigned {
			valueMissing = append(valueMissing, f.Name())
		}
	}
	if len(valueMissing) > 0 {
		pass.Reportf(fd.Name.Pos(),
			"%s has no whole-struct copy and never assigns %s field(s) %s: they silently zero in every clone",
			fd.Name.Name, root.Obj().Name(), strings.Join(valueMissing, ", "))
	}
}

// isWholeCopyOf reports whether rhs is the bare source variable (or a
// dereference of it) — the idiom that copies all value fields at once.
func isWholeCopyOf(pass *Pass, rhs ast.Expr, src *types.Var) bool {
	if star, ok := rhs.(*ast.StarExpr); ok {
		rhs = star.X
	}
	id, ok := rhs.(*ast.Ident)
	return ok && pass.objOf(id) == src
}

// isRootSel returns the field name when e is a selector x.F with x of
// the root type (pointer stripped), and "" otherwise.
func isRootSel(pass *Pass, e ast.Expr, root *types.Named) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	tv, ok := pass.Pkg.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return ""
	}
	if !types.Identical(stripPtr(tv.Type), root) {
		return ""
	}
	return sel.Sel.Name
}

// receiverType returns the receiver's type with pointers stripped, or nil.
func receiverType(pass *Pass, fd *ast.FuncDecl) types.Type {
	sig := funcSignature(pass, fd)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	return stripPtr(sig.Recv().Type())
}

func funcSignature(pass *Pass, fd *ast.FuncDecl) *types.Signature {
	fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	sig, _ := fn.Type().(*types.Signature)
	return sig
}

func stripPtr(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
