package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// digestAudits are R8's audits, one per package that owns an encoder.
// Each names the receiver type whose methods make up the encoder and the
// root struct types, defined in that package, whose transitive exported
// field set the encoder must cover. A field reachable from a root that
// never reaches the encoder makes two different values encode alike:
// for the spec types the cache then serves one run's Stats for the
// other, the silent-aliasing failure DESIGN.md's scenario section rules
// out; for Checkpoint a microarch field added to Core state but never
// walked silently zeroes on every resume-from-disk. sim.Config is walked
// once, by the checkpoint codec (Config.AppendCanonical is that walk),
// so it is audited there; the scenario digest encoder consumes it whole.
var digestAudits = []struct {
	pkg, recv string
	roots     []string
}{
	{"internal/sim", "codec", []string{"Config", "Checkpoint"}},
	{"internal/scenario", "encoder", []string{"Spec", "MeasureSpec"}},
}

// ruleDigestCov (R8) proves encoder exhaustiveness: every exported field
// of an audit's roots — and of every module-internal struct reachable
// through their fields — must be (a) read by an encoder method or a
// Digest method, (b) erased to a zero value in a Canonical method (the
// documented "cannot influence results" list), or (c) named in a
// //lint:exempt-field R8 manifest directive with a reason. A field whose
// type is another audit's root is a leaf: it must be read, and its own
// fields are checked where their walk lives.
var ruleDigestCov = &Rule{
	ID:   "R8",
	Name: "digest-field-coverage",
	Doc:  "every field reachable from sim.Config / sim.Checkpoint (checkpoint codec) and scenario.Spec / scenario.MeasureSpec (digest encoder) must reach its encoder, be erased by Canonical, or carry a //lint:exempt-field R8 manifest entry",
	Applies: func(rel string) bool {
		return underAny(rel, "internal/scenario", "internal/sim")
	},
	Check: checkDigestCoverage,
}

func checkDigestCoverage(pass *Pass) {
	var roots []*types.Named
	leaves := map[*types.Named]bool{}
	recv := ""
	for _, a := range digestAudits {
		mine := underAny(pass.Pkg.Rel, a.pkg)
		if mine {
			recv = a.recv
		}
		for _, name := range a.roots {
			if n := lookupNamed(pass, a.pkg, name); n != nil && mine {
				roots = append(roots, n)
			} else if n != nil {
				leaves[n] = true
			}
		}
	}
	if len(roots) == 0 {
		return
	}
	// Consumers: the encoder's methods plus the Digest methods. Describe
	// and friends deliberately do not count — display code reading a
	// field proves nothing about its identity contribution.
	var consumers []*ast.FuncDecl
	pass.eachFile(func(f *ast.File) {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			if n, _ := receiverType(pass, fd).(*types.Named); n != nil && n.Obj().Name() == recv || fd.Name.Name == "Digest" {
				consumers = append(consumers, fd)
			}
		}
	})
	if len(consumers) == 0 {
		// A renamed encoder must not switch the audit off silently.
		for _, r := range roots {
			if r.Obj().Pkg() == pass.Pkg.Types {
				pass.Reportf(r.Obj().Pos(), "no %s method encodes %s: R8 cannot audit it; walk it in %s methods or update R8's digestAudits", recv, r.Obj().Name(), recv)
			}
		}
		return
	}
	anchor := consumers[0]
	for _, fd := range consumers {
		if fd.Pos() < anchor.Pos() {
			anchor = fd
		}
	}
	cov := newCoverage(pass)
	cov.addRoots(roots, func(_ *coverType, f *types.Var) bool { return !leaves[structElem(f.Type())] })
	cov.collectExemptions("R8", append([]*Package{pass.Pkg}, cov.definingPackages()...))
	cov.collectErasures()
	for _, fd := range consumers {
		cov.recordReads(fd.Body)
	}
	for _, ct := range cov.orderedTypes() {
		missing := cov.missingFields(ct, nil)
		if len(missing) == 0 {
			continue
		}
		pass.Reportf(anchor.Pos(),
			"no %s method reads %s field(s) %s: two values differing only there encode identically (aliasing in the result cache, or zeroing on resume); encode them (and bump SchemeVersion or the checkpoint version), erase them in Canonical, or add `//lint:exempt-field R8 %s.<Field> <reason>`",
			recv, ct.display(), strings.Join(missing, ", "), ct.named.Obj().Name())
	}
}

// lookupNamed resolves a named type by name: first in the pass package's
// own scope (fixtures pose local stand-ins for the real types), then in
// any import whose path matches the module-relative package suffix.
func lookupNamed(pass *Pass, pkgSuffix, name string) *types.Named {
	if tn, ok := pass.Pkg.Types.Scope().Lookup(name).(*types.TypeName); ok {
		if n, ok := tn.Type().(*types.Named); ok {
			return n
		}
	}
	for _, imp := range pass.Pkg.Types.Imports() {
		p := imp.Path()
		if p != pkgSuffix && !strings.HasSuffix(p, "/"+pkgSuffix) {
			continue
		}
		if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
			if n, ok := tn.Type().(*types.Named); ok {
				return n
			}
		}
	}
	return nil
}
