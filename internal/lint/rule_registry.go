package lint

import (
	"go/types"
	"strings"
)

// ruleRegistry (R13) is the machine-checked integration contract for
// device families: a family declared in internal/accel must statically
// appear in every surface the rest of the system wires devices through.
// The device-engine layer made "add a device" a multi-file checklist
// (DESIGN.md); this rule replaces the reviewer's copy of that checklist
// so the next family cannot land half-wired. The surfaces:
//
//   - a WalkState method, so the checkpoint codec can round-trip the
//     device (always checkable: the method lives on the family type
//     itself);
//   - an exported internal/workload constructor that reaches the family
//     and stamps a canonical DeviceKey — the identity the scenario
//     store caches under. Only package-level functions count: the
//     registry's Spec.Build reaches every family, so it would vouch
//     for a constructor that forgot its key;
//   - an entry in the workload registry (workload.Spec.Build reaches
//     the family), which is how scenariod and cmd/tcasim build every
//     workload;
//   - for engine families only (Invoke trees that build isa.AccelPhase
//     schedules): an internal/experiments sweep that pairs the family
//     with staticmodel's EngineOccupancy term, keeping the analytical
//     fast path honest about the new schedule shape.
//
// Reachability is the tier-3 transitive "references the family type or
// a constructor returning it" fact, so helper indirection (kvstore's
// newKVDevice) counts. Surfaces whose host package is outside the
// analysis universe are skipped silently: `simlint ./internal/accel`
// checks what it can see, and only the full `simlint ./...` run (CI,
// make lint) enforces the whole contract.
var ruleRegistry = &Rule{
	ID:   "R13",
	Name: "device-registry-consistency",
	Doc:  "a device family must appear in every integration surface: WalkState method, workload DeviceKey, workload.Spec.Build registry entry, and (engines) a staticmodel EngineOccupancy sweep",
	Applies: func(rel string) bool {
		return rel == "internal/accel"
	},
	Check: checkRegistry,
}

func checkRegistry(pass *Pass) {
	ix := pass.Idx
	wp := ix.byRel["internal/workload"]
	var build *funcInfo
	if wp != nil {
		build = ix.funcOf(registryBuild(wp))
	}
	for _, named := range ix.familiesIn(pass.Pkg) {
		var missing []string

		if !hasMethod(named, "WalkState") {
			missing = append(missing, "a WalkState method for the checkpoint codec")
		}

		if wp != nil {
			var anchors []*funcInfo
			for _, fi := range ix.funcsIn(wp) {
				// Package-level functions only: Spec.Build reaches every family.
				if fi.fn.Exported() && fi.decl.Recv == nil && fi.sum.families[named] {
					anchors = append(anchors, fi)
				}
			}
			if len(anchors) == 0 {
				missing = append(missing, "an exported internal/workload constructor that reaches the family")
			} else {
				keyed := false
				for _, fi := range anchors {
					if fi.sum.refsDeviceKey {
						keyed = true
						break
					}
				}
				if !keyed {
					missing = append(missing, "a canonical DeviceKey stamped by its workload constructor")
				}
			}
			if build == nil || !build.sum.families[named] {
				missing = append(missing, "a registry entry (workload.Spec.Build must reach the family)")
			}
		}

		// Engine families build phased schedules; their occupancy shape
		// must be represented in an experiments sweep that consults the
		// analytical model.
		if fi := ix.funcOf(deviceInvoke(named)); fi != nil && fi.sum.refsAccelPhase {
			if ep := ix.byRel["internal/experiments"]; ep != nil {
				ok := false
				for _, efi := range ix.funcsIn(ep) {
					if efi.sum.families[named] && efi.sum.callsEngineOccupancy {
						ok = true
						break
					}
				}
				if !ok {
					missing = append(missing, "an internal/experiments sweep pairing the engine family with staticmodel EngineOccupancy")
				}
			}
		}

		if len(missing) > 0 {
			pass.Reportf(named.Obj().Pos(),
				"device family %s is not wired into every integration surface: missing %s (see LINT.md R13)",
				named.Obj().Name(), strings.Join(missing, "; "))
		}
	}
}

// registryBuild returns the workload registry's Spec.Build method, or
// nil when the package declares no registry.
func registryBuild(pkg *Package) *types.Func {
	tn, ok := pkg.Types.Scope().Lookup("Spec").(*types.TypeName)
	if !ok {
		return nil
	}
	obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg.Types, "Build")
	fn, _ := obj.(*types.Func)
	return fn
}

// hasMethod reports whether the named type (or its pointer) declares or
// promotes a method with the given name.
func hasMethod(named *types.Named, name string) bool {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), name)
	_, ok := obj.(*types.Func)
	return ok
}
