package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllow names the exported identifiers under internal/ that may
// stand without a non-test reference, each for a reason DESIGN.md
// ("Test-only exports") records. A method is named through its type
// (path.Type.Method); an allowed type covers its methods, and a whole
// package is allowed by its path followed by ".*".
var testOnlyAllow = map[string]bool{
	// The conformance harness is a test library: its callers are the
	// conformance tests and fuzz targets, by design.
	"fractal/internal/inp/conformance.*": true,
	// The fault suite injects faults by handing Dialer.Dial to the
	// transports as their DialFunc; shipped code dials the real network.
	"fractal/internal/faultnet.Dialer": true,
	// The Eq. 3 regret measurement on real sockets will derive faulted
	// links from the netsim link models through this, and pace them with
	// the link's own transfer-time formula.
	"fractal/internal/faultnet.ScheduleForLink": true,
	"fractal/internal/netsim.Link.TransferTime": true,
	// The fault suite reads how many faults a schedule injected and has
	// left.
	"fractal/internal/faultnet.Schedule.Counts":    true,
	"fractal/internal/faultnet.Schedule.Remaining": true,
	// SetFailed is the failure injection behind the CDN failover
	// extension; Stats are the edge fill counters the one-edge work reads.
	"fractal/internal/cdn.Edge.SetFailed": true,
	"fractal/internal/cdn.Edge.Stats":     true,
	// The client retention soak bounds a held version's bytes with it.
	"fractal/internal/codec.Held.Size": true,
	// The verifier's soundness fuzz runs every accepted program through
	// it, and the package example shows a PAD program run.
	"fractal/internal/mobilecode.VM.Run": true,
	// Cascade is the one PAD with no native codec; the mobilecode, verify
	// and appserver tests build it to drive the VM-served branch of
	// appserver.implFor.
	"fractal/internal/mobilecode.CascadeSpec": true,
}

// TestNoTestOnlyExports fails on any exported package-level identifier,
// or exported method of a package-level type, under internal/ that no
// non-test code of the module references: product code that only tests
// call is either deleted, moved into the test that calls it, or
// unexported. Every package of the module counts as a caller (cmd/,
// examples/, benchmark/ and the root included); references from inside
// the identifier's own declaration — a type's own methods included — do
// not. A method is also used when its receiver implements a non-empty
// interface that declares it (see implementedMethods). An allowlisted
// type or package covers its methods.
func TestNoTestOnlyExports(t *testing.T) {
	loader := getLoader(t)
	pkgs, err := loader.loadAll()
	if err != nil {
		t.Fatal(err)
	}
	used := map[types.Object]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				for _, unit := range declUnits(decl) {
					owners := unitOwners(pkg.Info, unit)
					ast.Inspect(unit, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							obj := pkg.Info.Uses[id]
							if fn, ok := obj.(*types.Func); ok {
								obj = fn.Origin()
							}
							if obj != nil && !owners[obj] {
								used[obj] = true
							}
						}
						return true
					})
				}
			}
		}
	}

	internal := loader.ModulePath + "/internal/"
	seenAllow := map[string]bool{}
	var unused []string
	// report records obj as unused unless an allowlist entry — its own key
	// or one of covers — admits it.
	report := func(pkg *Package, obj types.Object, key string, covers ...string) {
		for _, k := range append([]string{key}, covers...) {
			if testOnlyAllow[k] {
				seenAllow[k] = true
				return
			}
		}
		unused = append(unused, pkg.Fset.Position(obj.Pos()).String()+": "+key)
	}
	candidates := map[*types.Named][]*types.Func{}
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, internal) || pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				report(pkg, obj, pkg.Path+"."+name, pkg.Path+".*")
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !used[m] {
					candidates[named] = append(candidates[named], m)
				}
			}
		}
	}
	implemented := implementedMethods(pkgs, candidates)
	for named, methods := range candidates {
		obj := named.Obj()
		pkg := loader.pkgs[obj.Pkg().Path()]
		typeKey := obj.Pkg().Path() + "." + obj.Name()
		for _, m := range methods {
			if !implemented[m] {
				report(pkg, m, typeKey+"."+m.Name(), typeKey, obj.Pkg().Path()+".*")
			}
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but only tests reference it: delete it, move it into its test, or unexport it", u)
	}
	for key := range testOnlyAllow {
		if !seenAllow[key] {
			t.Errorf("allowlist entry %s matches no test-only export; remove it", key)
		}
	}
}

// implementedMethods returns the candidate methods that an interface
// declares and their receiver (value or pointer) implements: a call
// through the interface reaches them though no selector names them. The
// interfaces are every non-empty named interface of the loaded packages
// and their imports, error, and every interface literal in the module's
// non-test code; Unwrap, Is and As count when the receiver is an error,
// because package errors asserts to literal interfaces of its own.
func implementedMethods(pkgs []*Package, candidates map[*types.Named][]*types.Func) map[*types.Func]bool {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
					if it, ok := named.Underlying().(*types.Interface); ok {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.InterfaceType); ok {
					if it, ok := pkg.Info.Types[lit].Type.(*types.Interface); ok {
						ifaces = append(ifaces, it)
					}
				}
				return true
			})
		}
	}
	errorType := ifaces[0]
	out := map[*types.Func]bool{}
	for named, methods := range candidates {
		if named.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(named)
		implements := func(it *types.Interface) bool {
			return types.Implements(named, it) || types.Implements(ptr, it)
		}
		isError := implements(errorType)
		for _, m := range methods {
			switch m.Name() {
			case "Unwrap", "Is", "As":
				if isError {
					out[m] = true
					continue
				}
			}
			for _, it := range ifaces {
				if it.NumMethods() > 0 && it.IsMethodSet() && declares(it, m.Name()) && implements(it) {
					out[m] = true
					break
				}
			}
		}
	}
	return out
}

// declares reports whether it has a method called name.
func declares(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// declUnits splits a top-level declaration into the units that own their
// names: a function, or each spec of a const, var, type or import block.
func declUnits(decl ast.Decl) []ast.Node {
	g, ok := decl.(*ast.GenDecl)
	if !ok {
		return []ast.Node{decl}
	}
	units := make([]ast.Node, len(g.Specs))
	for i, spec := range g.Specs {
		units[i] = spec
	}
	return units
}

// unitOwners returns the package-level objects a declaration unit defines,
// plus a method's receiver type: references to these from inside the unit
// are self-references, not uses.
func unitOwners(info *types.Info, unit ast.Node) map[types.Object]bool {
	owners := map[types.Object]bool{}
	switch u := unit.(type) {
	case *ast.FuncDecl:
		owners[info.Defs[u.Name]] = true
		if u.Recv != nil && len(u.Recv.List) == 1 {
			typ := u.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			switch x := typ.(type) {
			case *ast.IndexExpr:
				typ = x.X
			case *ast.IndexListExpr:
				typ = x.X
			}
			if id, ok := typ.(*ast.Ident); ok {
				owners[info.Uses[id]] = true
			}
		}
	case *ast.TypeSpec:
		owners[info.Defs[u.Name]] = true
	case *ast.ValueSpec:
		for _, n := range u.Names {
			owners[info.Defs[n]] = true
		}
	}
	return owners
}
