package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// This file is the struct-field coverage engine behind R8 and R9: given
// a set of root struct types and a set of "consumer" functions, it
// proves that every exported field — of the roots and of every
// module-internal struct type reachable from them — is read by at least
// one consumer, erased by a Canonical method, or named in an explicit
// exemption manifest. A field that is none of the three is exactly the
// failure the scenario layer cannot see at runtime: a config field that
// never reaches the digest encoder silently aliases two different runs
// to one cached result, and a Stats field that never reaches a clone or
// an emitter silently leaks or disappears.
//
// The exemption manifest is a source-level directive placed next to the
// field (or anywhere in the consumer package):
//
//	//lint:exempt-field R8 Program.Labels diagnostics only, never executed
//
// The rule ID scopes the exemption, the [pkg.]Type.Field token names the
// field, and the reason is mandatory — like //lint:ignore, a directive
// without a reason is reported as R0 and exempts nothing.

// exemptField is one parsed //lint:exempt-field directive.
type exemptField struct {
	Rule   string
	Type   string // "Type" or "pkg.Type"
	Field  string
	Reason string
}

// parseExemptField parses `//lint:exempt-field RULE [pkg.]Type.Field
// reason`. ok is false when any part (including the reason) is missing.
func parseExemptField(text string) (exemptField, bool) {
	fields := strings.Fields(strings.TrimPrefix(text, exemptPrefix))
	if len(fields) < 3 {
		return exemptField{}, false
	}
	sel := fields[1]
	dot := strings.LastIndex(sel, ".")
	if dot <= 0 || dot == len(sel)-1 {
		return exemptField{}, false
	}
	return exemptField{
		Rule:   fields[0],
		Type:   sel[:dot],
		Field:  sel[dot+1:],
		Reason: strings.Join(fields[2:], " "),
	}, true
}

// coverType is one struct type under audit.
type coverType struct {
	named *types.Named
	str   *types.Struct
	// viaJSON marks a type a consumer hashes through encoding/json,
	// which cannot see unexported fields: missingFields then holds
	// those to account too.
	viaJSON bool
}

// display renders the type as pkgbase.Name, the form diagnostics and
// exemption directives use.
func (ct *coverType) display() string {
	obj := ct.named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return pkgBase(obj.Pkg().Path()) + "." + obj.Name()
}

func pkgBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// coverage accumulates field facts for one consumer set.
type coverage struct {
	pass *Pass
	// types maps the named type to its audit record, in insertion
	// (breadth-first discovery) order via order.
	types map[*types.Named]*coverType
	order []*types.Named
	// reads, erased, exempt are keyed "pkgbase.Type.Field".
	reads  map[string]bool
	erased map[string]bool
	exempt map[string]string // key -> reason
}

func newCoverage(pass *Pass) *coverage {
	return &coverage{
		pass:   pass,
		types:  map[*types.Named]*coverType{},
		reads:  map[string]bool{},
		erased: map[string]bool{},
		exempt: map[string]string{},
	}
}

func fieldKey(ct *coverType, field string) string {
	return ct.display() + "." + field
}

// isExempt honors both the qualified (pkg.Type.Field) and unqualified
// (Type.Field) manifest spellings.
func (c *coverage) isExempt(ct *coverType, field string) bool {
	if _, ok := c.exempt[fieldKey(ct, field)]; ok {
		return true
	}
	_, ok := c.exempt[ct.named.Obj().Name()+"."+field]
	return ok
}

// moduleInternal reports whether the type's defining package belongs to
// the analyzed module tree. Matching on the "internal/" spine keeps the
// check independent of the module name, which fixture packages remap.
func moduleInternal(named *types.Named) bool {
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && strings.Contains(obj.Pkg().Path()+"/", "/internal/")
}

// addRoots seeds the closure and walks it breadth-first: every
// module-internal named struct type reachable through fields (possibly
// behind pointers, slices, arrays or map values) joins the audit set.
// descend filters which fields are followed — the emit check, for
// example, must not descend into a field exempted from emission.
func (c *coverage) addRoots(roots []*types.Named, descend func(ct *coverType, field *types.Var) bool) {
	queue := append([]*types.Named(nil), roots...)
	for len(queue) > 0 {
		named := queue[0]
		queue = queue[1:]
		if named == nil || c.types[named] != nil || !moduleInternal(named) {
			continue
		}
		str, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		ct := &coverType{named: named, str: str}
		c.types[named] = ct
		c.order = append(c.order, named)
		for i := 0; i < str.NumFields(); i++ {
			f := str.Field(i)
			if descend != nil && !descend(ct, f) {
				continue
			}
			if next := structElem(f.Type()); next != nil {
				queue = append(queue, next)
			}
		}
	}
}

// structElem unwraps pointers, slices, arrays and map values down to a
// named struct type, or nil.
func structElem(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Named:
			if _, ok := u.Underlying().(*types.Struct); ok {
				return u
			}
			return nil
		default:
			return nil
		}
	}
}

// namedOf strips pointers and aliases down to the named type of t.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// recordReads walks a consumer body and marks every selector x.F where x
// has one of the audited types. Selector chains are walked in full, so
// c.Memory.DRAM.Latency covers Config.Memory, HierarchyConfig.DRAM and
// DRAMConfig.Latency at once. A value passed whole to json.Marshal reads
// what encoding/json emits of it (see markJSON).
func (c *coverage) recordReads(body ast.Node) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 1 && c.isJSONMarshal(call) {
			if tv, ok := c.pass.Pkg.Info.Types[call.Args[0]]; ok {
				c.markJSON(tv.Type, map[*types.Named]bool{})
			}
			return true
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		tv, ok := c.pass.Pkg.Info.Types[sel.X]
		if !ok {
			return true
		}
		if named := namedOf(tv.Type); named != nil {
			if ct := c.types[named]; ct != nil {
				c.reads[fieldKey(ct, sel.Sel.Name)] = true
			}
		}
		return true
	})
}

// isJSONMarshal reports whether call calls encoding/json.Marshal.
func (c *coverage) isJSONMarshal(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := c.pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" && fn.Name() == "Marshal"
}

// markJSON marks read every field encoding/json emits for a value of
// type t, transitively through pointers, slices, arrays and map values:
// exported and embedded fields not tagged `json:"-"`. The fields it
// skips stay unread, and an audited type reached here is flagged
// viaJSON so its unexported fields are reported too. A type with its
// own MarshalJSON or MarshalText is not entered: that method decides
// what reaches the bytes.
func (c *coverage) markJSON(t types.Type, seen map[*types.Named]bool) {
	named := structElem(t)
	if named == nil || seen[named] || hasMethod(named, "MarshalJSON") || hasMethod(named, "MarshalText") {
		return
	}
	seen[named] = true
	ct := c.types[named]
	if ct != nil {
		ct.viaJSON = true
	}
	str := named.Underlying().(*types.Struct)
	for i := 0; i < str.NumFields(); i++ {
		f := str.Field(i)
		if !f.Exported() && !f.Embedded() || reflect.StructTag(str.Tag(i)).Get("json") == "-" {
			continue
		}
		if ct != nil {
			c.reads[fieldKey(ct, f.Name())] = true
		}
		c.markJSON(f.Type(), seen)
	}
}

// collectExemptions scans the given packages' comments for well-formed
// //lint:exempt-field directives carrying the given rule ID. Malformed
// directives are R0's business (see suppressions).
func (c *coverage) collectExemptions(ruleID string, pkgs []*Package) {
	for _, pkg := range pkgs {
		if pkg == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, cm := range cg.List {
					if !strings.HasPrefix(cm.Text, exemptPrefix) {
						continue
					}
					ex, ok := parseExemptField(cm.Text)
					if !ok || ex.Rule != ruleID {
						continue
					}
					c.exempt[ex.Type+"."+ex.Field] = ex.Reason
				}
			}
		}
	}
}

// definingPackages returns the analyzed packages that define the audited
// types (deduplicated, nil-free), via the loader's dependency cache.
func (c *coverage) definingPackages() []*Package {
	seen := map[string]bool{}
	var out []*Package
	for _, named := range c.order {
		pkg := named.Obj().Pkg()
		if pkg == nil || seen[pkg.Path()] {
			continue
		}
		seen[pkg.Path()] = true
		if p := c.pass.Pkg.Dep(pkg.Path()); p != nil {
			out = append(out, p)
		}
	}
	return out
}

// collectErasures reads the documented erasure list off Canonical
// methods: an assignment inside a method named Canonical that sets a
// field of an audited type to a zero literal ("" / 0 / false / nil)
// declares the field semantically inert, so the digest encoder is right
// to skip it. Normalizations (c.Predictor = c.Predictor.Canonical(), or
// conditional defaults like p.Kind = "gshare") assign non-zero values
// and do not count — a normalized field still has to be encoded.
func (c *coverage) collectErasures() {
	for _, pkg := range c.definingPackages() {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name != "Canonical" || fd.Recv == nil || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					as, ok := n.(*ast.AssignStmt)
					if !ok || len(as.Lhs) != len(as.Rhs) {
						return true
					}
					for i, lhs := range as.Lhs {
						if !zeroLiteral(as.Rhs[i]) {
							continue
						}
						sel, ok := lhs.(*ast.SelectorExpr)
						if !ok {
							continue
						}
						tv, ok := pkg.Info.Types[sel.X]
						if !ok {
							continue
						}
						if named := namedOf(tv.Type); named != nil {
							if ct := c.types[named]; ct != nil {
								c.erased[fieldKey(ct, sel.Sel.Name)] = true
							}
						}
					}
					return true
				})
			}
		}
	}
}

// zeroLiteral reports whether e spells a zero value: "", 0, 0.0, false
// or nil.
func zeroLiteral(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.BasicLit:
		switch x.Value {
		case `""`, "``", "0", "0.0", "0x0":
			return true
		}
	case *ast.Ident:
		return x.Name == "false" || x.Name == "nil"
	}
	return false
}

// missingFields returns, for one audited type, its exported fields
// (all fields of a viaJSON type) that no consumer read and no erasure or
// exemption excuses, in declaration order. skip filters additional
// fields (e.g. ones another check already reported).
func (c *coverage) missingFields(ct *coverType, skip func(f *types.Var) bool) []string {
	var missing []string
	for i := 0; i < ct.str.NumFields(); i++ {
		f := ct.str.Field(i)
		if !f.Exported() && !ct.viaJSON {
			continue
		}
		if skip != nil && skip(f) {
			continue
		}
		key := fieldKey(ct, f.Name())
		if c.reads[key] || c.erased[key] || c.isExempt(ct, f.Name()) {
			continue
		}
		missing = append(missing, f.Name())
	}
	return missing
}

// orderedTypes returns the audit set sorted by display name for
// deterministic reporting (discovery order depends on field order, which
// is fine, but name order reads better in multi-type reports).
func (c *coverage) orderedTypes() []*coverType {
	out := make([]*coverType, 0, len(c.order))
	for _, named := range c.order {
		out = append(out, c.types[named])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].display() < out[j].display() })
	return out
}

// bearsReference reports whether t transitively contains a slice, map or
// pointer — i.e. whether a plain value copy of a field of this type
// aliases storage with the original. Named struct types recurse;
// everything else answers directly. seen guards recursive types.
func bearsReference(t types.Type) bool {
	return bearsRef(t, map[types.Type]bool{})
}

func bearsRef(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if bearsRef(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return bearsRef(u.Elem(), seen)
	}
	return false
}

// serializable reports whether a field of this type survives the disk
// store's JSON round trip: funcs and chans marshal as null or fail
// outright, so a cached result would silently drop them.
func serializable(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Signature, *types.Chan:
		return false
	}
	return true
}

// pos of a field's declaration, for positioning serializability
// diagnostics at the offending line.
func fieldPos(f *types.Var) token.Pos { return f.Pos() }
