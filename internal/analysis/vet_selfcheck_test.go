package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestVetSelfCheck runs the full fractal-vet suite against this repository
// itself, so tier-1 verification (`go test ./...`) enforces its invariants
// forever: a change that reads the wall clock in internal/netsim, draws
// from the global math/rand source, discards a codec error, compares
// digests ad hoc, holds a lock across a network exchange, sizes an
// allocation from an unchecked wire length, or allocates per call in a
// //fractal:hotpath function fails this test. The invariants of the
// retired goleak, opcomplete and deadline analyzers are pinned by dynamic
// tests instead (DESIGN.md, "Analyzer receipts").
func TestVetSelfCheck(t *testing.T) {
	loader := getLoader(t)
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("module walk found no packages")
	}
	for _, pkg := range pkgs {
		for _, te := range pkg.TypeErrs {
			t.Errorf("%s: type error: %v", pkg.Path, te)
		}
	}
	for _, d := range Run(pkgs, Analyzers()) {
		t.Errorf("%s", d)
	}
}

// TestScopeTablesNameRealPackages pins that every import path in an
// analyzer's scope is a package of this module: an entry left behind by a
// deleted or renamed package checks nothing, silently.
func TestScopeTablesNameRealPackages(t *testing.T) {
	loader := getLoader(t)
	for _, a := range Analyzers() {
		for _, path := range a.scope {
			rel, ok := strings.CutPrefix(path, loader.ModulePath+"/")
			if !ok || !hasGoFiles(filepath.Join(loader.ModuleDir, filepath.FromSlash(rel))) {
				t.Errorf("%s's scope names %q, which is not a package directory of module %s", a.Name, path, loader.ModulePath)
			}
		}
	}
}
