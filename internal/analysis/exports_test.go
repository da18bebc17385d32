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
// ("Test-only exports") records. A whole package is allowed by its path
// followed by ".*".
var testOnlyAllow = map[string]bool{
	// The conformance harness is a test library: its callers are the
	// conformance tests and fuzz targets, by design.
	"fractal/internal/inp/conformance.*": true,
	// The fault suite injects faults by handing Dialer.Dial to the
	// transports as their DialFunc; shipped code dials the real network.
	"fractal/internal/faultnet.Dialer": true,
	// The Eq. 3 regret measurement on real sockets will derive faulted
	// links from the netsim link models through this.
	"fractal/internal/faultnet.ScheduleForLink": true,
	// Cascade is the one PAD with no native codec; the mobilecode, verify
	// and appserver tests build it to drive the VM-served branch of
	// appserver.implFor.
	"fractal/internal/mobilecode.CascadeSpec": true,
}

// TestNoTestOnlyExports fails on any exported package-level identifier
// under internal/ that no non-test code of the module references: product
// code that only tests call is either deleted, moved into the test that
// calls it, or unexported. Every package of the module counts as a
// caller (cmd/, examples/, benchmark/ and the root included); references
// from inside the identifier's own declaration — a type's own methods
// included — do not.
func TestNoTestOnlyExports(t *testing.T) {
	loader := getLoader(t)
	pkgs, err := loader.LoadAll()
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
							if obj := pkg.Info.Uses[id]; obj != nil && !owners[obj] {
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
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, internal) || pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() || used[obj] {
				continue
			}
			key := pkg.Path + "." + name
			if testOnlyAllow[key] {
				seenAllow[key] = true
				continue
			}
			if testOnlyAllow[pkg.Path+".*"] {
				seenAllow[pkg.Path+".*"] = true
				continue
			}
			unused = append(unused, pkg.Fset.Position(obj.Pos()).String()+": "+key)
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
