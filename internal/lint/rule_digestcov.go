package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// digestAudits are R8's audits, one per package that owns a checkpoint
// walk or an encoder. Each names the root struct types, defined in that
// package, whose transitive exported field set its consumers must cover,
// and recv, the receiver type whose methods make up an encoder. An audit
// without recv is a checkpoint audit: its consumers are the package's
// walks, every function with a *ckpt.Codec parameter. A field reachable
// from a root that never reaches a consumer makes two different values
// encode alike: for the spec types the cache then serves one run's Stats
// for the other, the silent-aliasing failure DESIGN.md's scenario section
// rules out; for Checkpoint, Stats and the components whose walks the
// core's state walk calls, a counter added but never walked silently
// zeroes on every resume-from-disk. sim.Config is walked once, by the
// checkpoint codec (Config.AppendCanonical is that walk), so it is
// audited there; the scenario digest encoder consumes it whole.
var digestAudits = []struct {
	pkg, recv string
	roots     []string
}{
	{"internal/sim", "", []string{"Config", "Checkpoint", "Stats"}},
	{"internal/isa", "", []string{"Memory"}},
	{"internal/mem", "", []string{"CacheStats", "TLBStats", "DRAMStats"}},
	{"internal/tcmalloc", "", []string{"Allocator"}},
	{"internal/scenario", "encoder", []string{"Spec", "MeasureSpec", "Recipe"}},
}

// ruleDigestCov (R8) proves encoder exhaustiveness: every exported field
// of an audit's roots — and of every module-internal struct reachable
// through their fields — must be (a) read by a consumer (a checkpoint
// walk, an encoder method, or a Digest method; a value a consumer passes
// whole to json.Marshal reads what encoding/json emits of it, and its
// unexported or `json:"-"` fields are then demanded), (b) erased to a zero
// value in a Canonical method (the documented "cannot influence results"
// list), or (c) named in a //lint:exempt-field R8 manifest directive with
// a reason. A field whose type is another audit's root is a leaf: it
// must be read, and its own fields are checked where their walk lives.
var ruleDigestCov = &Rule{
	ID:   "R8",
	Name: "digest-field-coverage",
	Doc:  "every field reachable from sim.Config / sim.Checkpoint / sim.Stats, isa.Memory, mem's cache/TLB/DRAM stats and tcmalloc.Allocator (checkpoint walks) and scenario.Spec / scenario.MeasureSpec / scenario.Recipe (digest encoder, json.Marshal of a whole value included) must reach its walk or encoder, be erased by Canonical, or carry a //lint:exempt-field R8 manifest entry",
	Applies: func(rel string) bool {
		return underAny(rel, "internal/scenario", "internal/sim", "internal/isa", "internal/mem", "internal/tcmalloc")
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
	consumer := "checkpoint walk (function with a *ckpt.Codec parameter)"
	if recv != "" {
		consumer = recv + " method"
	}
	// Consumers: the walks or the encoder's methods, plus the Digest
	// methods. Describe and friends deliberately do not count — display
	// code reading a field proves nothing about its identity contribution.
	var consumers []*ast.FuncDecl
	pass.eachFile(func(f *ast.File) {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && isConsumer(pass, fd, recv) {
				consumers = append(consumers, fd)
			}
		}
	})
	if len(consumers) == 0 {
		// A renamed encoder must not switch the audit off silently.
		for _, r := range roots {
			if r.Obj().Pkg() == pass.Pkg.Types {
				pass.Reportf(r.Obj().Pos(), "no %s encodes %s: R8 cannot audit it; walk it in a %s or update R8's digestAudits", consumer, r.Obj().Name(), consumer)
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
			"no %s reads %s field(s) %s: two values differing only there encode identically (aliasing in the result cache, or zeroing on resume); encode them (and bump SchemeVersion or the checkpoint version), erase them in Canonical, or add `//lint:exempt-field R8 %s.<Field> <reason>`",
			consumer, ct.display(), strings.Join(missing, ", "), ct.named.Obj().Name())
	}
}

// isConsumer reports whether fd is one of an audit's consumers: a Digest
// method, a method on the encoder receiver recv, or, for a checkpoint
// audit (recv ""), a function with a *ckpt.Codec parameter.
func isConsumer(pass *Pass, fd *ast.FuncDecl, recv string) bool {
	if fd.Recv != nil && fd.Name.Name == "Digest" {
		return true
	}
	if recv != "" {
		n, _ := receiverType(pass, fd).(*types.Named)
		return n != nil && n.Obj().Name() == recv
	}
	sig := funcSignature(pass, fd)
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if n := namedOf(sig.Params().At(i).Type()); n != nil && n.Obj().Name() == "Codec" &&
			n.Obj().Pkg() != nil && strings.HasSuffix(n.Obj().Pkg().Path(), "internal/ckpt") {
			return true
		}
	}
	return false
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
