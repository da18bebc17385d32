package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out files under root from rel-path -> content.
func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for rel, content := range files {
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFindModuleRootMissing(t *testing.T) {
	if _, err := FindModuleRoot(t.TempDir()); err == nil {
		t.Fatal("FindModuleRoot found a go.mod above a bare temp dir")
	}
}

func TestNewLoaderNoModuleDirective(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{"go.mod": "// no module line\n"})
	if _, err := newLoader(dir); err == nil || !strings.Contains(err.Error(), "no module directive") {
		t.Fatalf("newLoader error = %v, want a no-module-directive error", err)
	}
}

// newTempLoader builds a loader over a scratch module.
func newTempLoader(t *testing.T, files map[string]string) *Loader {
	t.Helper()
	dir := t.TempDir()
	all := map[string]string{"go.mod": "module scratch\n\ngo 1.24\n"}
	for k, v := range files {
		all[k] = v
	}
	writeTree(t, dir, all)
	l, err := newLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLoadOutsideModule(t *testing.T) {
	l := newTempLoader(t, nil)
	if _, err := l.Load("othermod/pkg"); err == nil || !strings.Contains(err.Error(), "outside module") {
		t.Fatalf("Load error = %v, want an outside-module error", err)
	}
}

func TestLoadDirMissing(t *testing.T) {
	l := newTempLoader(t, nil)
	if _, err := l.LoadDir(filepath.Join(l.ModuleDir, "nope"), "scratch/nope"); err == nil {
		t.Fatal("LoadDir succeeded on a missing directory")
	}
}

func TestLoadDirNoSources(t *testing.T) {
	l := newTempLoader(t, map[string]string{
		"empty/README.md":      "not Go\n",
		"empty/skip_test.go":   "package empty\n", // test files are not analyzed
		"empty/sub/deeper.txt": "also not Go\n",
	})
	if _, err := l.LoadDir(filepath.Join(l.ModuleDir, "empty"), "scratch/empty"); err == nil || !strings.Contains(err.Error(), "no Go sources") {
		t.Fatalf("LoadDir error = %v, want a no-Go-sources error", err)
	}
}

func TestLoadDirParseError(t *testing.T) {
	l := newTempLoader(t, map[string]string{
		"broken/broken.go": "package broken\n\nfunc oops( {\n",
	})
	if _, err := l.LoadDir(filepath.Join(l.ModuleDir, "broken"), "scratch/broken"); err == nil || !strings.Contains(err.Error(), "parsing") {
		t.Fatalf("LoadDir error = %v, want a parse error", err)
	}
}

func TestLoadImportCycle(t *testing.T) {
	l := newTempLoader(t, map[string]string{
		"a/a.go": "package a\n\nimport \"scratch/b\"\n\nvar A = b.B\n",
		"b/b.go": "package b\n\nimport \"scratch/a\"\n\nvar B = a.A\n",
	})
	pkg, err := l.Load("scratch/a")
	if err != nil {
		// The cycle may surface as a load error on the first package...
		if !strings.Contains(err.Error(), "import cycle") {
			t.Fatalf("Load error = %v, want an import-cycle error", err)
		}
		return
	}
	// ...or land in the type errors of whichever package's check hit the
	// back edge (b imports a while a is still loading, so b records it and
	// a then checks against b's partial result). Either way the loader
	// must terminate and say "cycle" somewhere.
	pkgs := []*Package{pkg}
	if b := l.pkgs["scratch/b"]; b != nil {
		pkgs = append(pkgs, b)
	}
	for _, p := range pkgs {
		for _, te := range p.TypeErrs {
			if strings.Contains(te.Error(), "import cycle") {
				return
			}
		}
	}
	t.Fatalf("import cycle not reported; a.TypeErrs = %v", pkg.TypeErrs)
}

// TestLoadDirTypeErrorsNonFatal pins the degrade-gracefully contract: a
// package with type errors still loads (with Info partially filled) and
// the suite runs over it without panicking.
func TestLoadDirTypeErrorsNonFatal(t *testing.T) {
	l := newTempLoader(t, map[string]string{
		"semibad/semibad.go": "package semibad\n\nfunc F() int {\n\treturn undefinedIdent\n}\n",
	})
	pkg, err := l.LoadDir(filepath.Join(l.ModuleDir, "semibad"), "scratch/semibad")
	if err != nil {
		t.Fatalf("LoadDir failed hard on a type error: %v", err)
	}
	if len(pkg.TypeErrs) == 0 {
		t.Fatal("type error not collected in TypeErrs")
	}
	// The full suite (including the interprocedural program build) must
	// tolerate the partial Info.
	if diags := run([]*Package{pkg}, allAnalyzers()); diags != nil {
		for _, d := range diags {
			t.Errorf("unexpected diagnostic on type-broken package: %v", d)
		}
	}
}

// TestLoaderCachesPackages verifies Load memoizes: the same *Package
// pointer comes back, so cross-package object identity (which the call
// graph depends on) holds.
func TestLoaderCachesPackages(t *testing.T) {
	l := newTempLoader(t, map[string]string{
		"p/p.go": "package p\n\nfunc F() int { return 1 }\n",
	})
	first, err := l.Load("scratch/p")
	if err != nil {
		t.Fatal(err)
	}
	second, err := l.Load("scratch/p")
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("Load did not memoize the package")
	}
}
