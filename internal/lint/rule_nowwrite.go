package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// nowWriterMethods are the only (*Core) methods allowed to advance the
// simulator clock: the tick loop's increment in runLoop, the event-horizon
// jump in fastForward, and checkpoint restore in restoreFrom (which sets the
// clock once, before any stage runs, to the cycle the snapshot was taken
// at). Every other writer would bypass the "skipping is legal iff no stage
// can act before the horizon" invariant documented in DESIGN.md — a stage
// that moved time itself could slide events past a horizon already computed
// from the old clock.
var nowWriterMethods = map[string]bool{
	"runLoop":     true,
	"fastForward": true,
	"restoreFrom": true,
}

// ruleNowWrite (R6) flags writes to the `now` field of a sim Core, and
// taking its address, outside the three sanctioned clock writers: a
// pointer to the clock (a setter's argument, or a checkpoint walk's field)
// lets the callee move it. Reads are unrestricted — every stage consults
// the clock — but time must only move through the tick loop or the
// event-horizon jump so fast-forwarded and cycle-by-cycle runs stay
// bit-identical (checkpoint restore excepted: it moves the clock exactly
// once while the pipeline is empty).
var ruleNowWrite = &Rule{
	ID:   "R6",
	Name: "core-now-write",
	Doc:  "Core.now advances only in (*Core).runLoop, (*Core).fastForward and (*Core).restoreFrom, and its address is taken nowhere else; other writers break the event-horizon invariant",
	Applies: func(rel string) bool {
		return underAny(rel, "internal/sim")
	},
	Check: func(pass *Pass) {
		pass.eachFile(func(f *ast.File) {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				// Sanctioned writers are skipped wholesale, function
				// literals within them included: a helper closure inside
				// Run is still the tick loop.
				if nowWriterMethods[fd.Name.Name] && recvIsSimCore(pass, fd) {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch st := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range st.Lhs {
							checkNowWrite(pass, lhs)
						}
					case *ast.IncDecStmt:
						checkNowWrite(pass, st.X)
					case *ast.UnaryExpr:
						if st.Op == token.AND {
							checkNowWrite(pass, st.X)
						}
					}
					return true
				})
			}
		})
	},
}

// checkNowWrite reports x if it is the now field of a sim Core: the
// target of a write, or an operand of &.
func checkNowWrite(pass *Pass, x ast.Expr) {
	sel, ok := x.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "now" {
		return
	}
	if tv, ok := pass.Pkg.Info.Types[sel.X]; ok && isSimCore(tv.Type) {
		pass.Reportf(x.Pos(),
			"writes or takes the address of Core.now outside (*Core).runLoop / (*Core).fastForward / (*Core).restoreFrom; the clock may only move through the tick loop, the event-horizon jump, or checkpoint restore (DESIGN.md)")
	}
}

// recvIsSimCore reports whether fd's receiver is a sim Core (by value or
// pointer).
func recvIsSimCore(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return false
	}
	tv, ok := pass.Pkg.Info.Types[fd.Recv.List[0].Type]
	return ok && isSimCore(tv.Type)
}

// isSimCore reports whether t is (a pointer to) a named type Core defined
// in a package under internal/sim. Matching by path fragment keeps the
// rule independent of the module name, which fixture packages remap.
func isSimCore(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != "Core" {
		return false
	}
	p := obj.Pkg().Path()
	return strings.HasSuffix(p, "internal/sim") || strings.Contains(p, "internal/sim/")
}
