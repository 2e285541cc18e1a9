package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// Device snapshot coverage — R9's sub-check for the accelerator layer.
//
// A device that implements isa.AccelSnapshotter participates in simulator
// checkpointing: its WalkState frame is the only thing that carries the
// device's runtime state across a checkpoint/restore boundary. A field the
// device mutates at run time (a diagnostic counter bumped in Invoke, a
// mode latch flipped in Mark/Rewind) but never walks silently diverges
// on every checkpoint fork: the forked run reports zeros while the straight
// run reports totals, and nothing fails. Statically, "mutated by a method
// other than WalkState" is a precise stand-in for "runtime state", so the
// audit is: every exported field assigned (or ++/--'d) by any other method
// of a snapshottable device must be referenced by WalkState, which both
// encodes and decodes it, or carry a //lint:exempt-field R9 manifest
// naming why it may legally diverge (per-invocation scratch dead at cycle
// boundaries, for example).
//
// Construction-time configuration (set once by a New* constructor, never
// assigned by a method) is not runtime state and is not audited — the
// snapshot protocol deliberately excludes it, because the restore target is
// always constructed with the same configuration first.

// devSnapAudit gathers one snapshottable device type's declarations.
type devSnapAudit struct {
	named    *types.Named
	walk     *ast.FuncDecl
	mutators []*ast.FuncDecl
}

func checkDeviceSnapshots(pass *Pass) {
	audits := map[*types.Named]*devSnapAudit{}
	var order []*types.Named
	pass.eachFile(func(f *ast.File) {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			recv := receiverType(pass, fd)
			named, ok := recv.(*types.Named)
			if !ok || named.Obj().Pkg() != pass.Pkg.Types {
				continue
			}
			if _, ok := named.Underlying().(*types.Struct); !ok {
				continue
			}
			a := audits[named]
			if a == nil {
				a = &devSnapAudit{named: named}
				audits[named] = a
				order = append(order, named)
			}
			if fd.Name.Name == "WalkState" {
				a.walk = fd
			} else {
				a.mutators = append(a.mutators, fd)
			}
		}
	})
	sort.Slice(order, func(i, j int) bool {
		return order[i].Obj().Name() < order[j].Obj().Name()
	})
	for _, named := range order {
		// Only types with a WalkState method are in the checkpoint
		// protocol; the simulator separately refuses to checkpoint an
		// invoked device without one.
		if a := audits[named]; a.walk != nil {
			auditDeviceSnapshot(pass, a)
		}
	}
}

func auditDeviceSnapshot(pass *Pass, a *devSnapAudit) {
	str := a.named.Underlying().(*types.Struct)
	mutatedBy := map[string]string{} // field -> method that mutates it
	for _, fd := range a.mutators {
		for field := range assignedFields(pass, a.named, fd) {
			if _, seen := mutatedBy[field]; !seen {
				mutatedBy[field] = fd.Name.Name
			}
		}
	}
	walked := referencedFields(pass, a.named, a.walk)

	cov := newCoverage(pass)
	cov.addRoots([]*types.Named{a.named}, func(*coverType, *types.Var) bool { return false })
	cov.collectExemptions("R9", []*Package{pass.Pkg})
	ct := cov.types[a.named]

	for i := 0; i < str.NumFields(); i++ {
		f := str.Field(i)
		method, mutated := mutatedBy[f.Name()]
		if !f.Exported() || !mutated || walked[f.Name()] || (ct != nil && cov.isExempt(ct, f.Name())) {
			continue
		}
		name := a.named.Obj().Name()
		pass.Reportf(a.walk.Name.Pos(),
			"%s.%s is runtime state (mutated by %s) but WalkState never walks it: the counter silently diverges across checkpoint forks; walk it or exempt with `//lint:exempt-field R9 %s.%s <reason>`",
			name, f.Name(), method, name, f.Name())
	}
}

// assignedFields returns the fields of named that fd's body writes through
// a selector — plain or compound assignment, or ++/--.
func assignedFields(pass *Pass, named *types.Named, fd *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	if fd.Body == nil {
		return out
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if name := isRootSel(pass, lhs, named); name != "" {
					out[name] = true
				}
			}
		case *ast.IncDecStmt:
			if name := isRootSel(pass, s.X, named); name != "" {
				out[name] = true
			}
		}
		return true
	})
	return out
}

// referencedFields returns every selector x.F in fd's body with x of the
// named type (pointer stripped) — reads and writes alike, which is the
// right notion for a walk that both encodes and decodes.
func referencedFields(pass *Pass, named *types.Named, fd *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	if fd == nil || fd.Body == nil {
		return out
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if name := isRootSel(pass, sel, named); name != "" {
				out[name] = true
			}
		}
		return true
	})
	return out
}
