package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestVetSelfCheck runs the full fractal-vet suite against this repository
// itself, so tier-1 verification (`go test ./...`) enforces the
// determinism, digest-safety, and error-handling invariants forever: a
// change that reads the wall clock in internal/netsim, draws from the
// global math/rand source, discards a codec error, leaves a VM opcode
// unhandled, or compares digests ad hoc fails this test.
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
// analyzer's scope table is a package of this module: an entry left behind
// by a deleted or renamed package checks nothing, silently.
func TestScopeTablesNameRealPackages(t *testing.T) {
	loader := getLoader(t)
	tables := map[string]map[string]bool{
		"deadlineScope":   deadlineScope,
		"digestsafeScope": digestsafeScope,
		"goleakScope":     goleakScope,
		"lockheldScope":   lockheldScope,
		"simtimeScope":    simtimeScope,
		"wiretaintScope":  wiretaintScope,
	}
	for name, table := range tables {
		for path := range table {
			rel, ok := strings.CutPrefix(path, loader.ModulePath+"/")
			if !ok || !hasGoFiles(filepath.Join(loader.ModuleDir, filepath.FromSlash(rel))) {
				t.Errorf("%s names %q, which is not a package directory of module %s", name, path, loader.ModulePath)
			}
		}
	}
}
