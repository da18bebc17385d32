package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// TestVetSelfCheck runs the full fractal-vet suite against this repository
// itself, so tier-1 verification (`go test ./...`) enforces its invariants
// forever: a change that reads the wall clock in internal/netsim, draws
// from the global math/rand source, discards a codec error, compares
// digests ad hoc, holds a lock across a network exchange, or allocates
// per call in a //fractal:hotpath function fails this test. The
// invariants of the retired goleak, opcomplete, deadline and wiretaint
// analyzers are pinned by tests instead (DESIGN.md, "Analyzer receipts").
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
	for _, d := range run(pkgs, allAnalyzers()) {
		t.Errorf("%s", d)
	}
}

// TestScopeTablesNameRealPackages pins that every import path in an
// analyzer's scope is a package of this module: an entry left behind by a
// deleted or renamed package checks nothing, silently.
func TestScopeTablesNameRealPackages(t *testing.T) {
	loader := getLoader(t)
	for _, a := range allAnalyzers() {
		for _, path := range a.scope {
			rel, ok := strings.CutPrefix(path, loader.ModulePath+"/")
			if !ok || !hasGoFiles(filepath.Join(loader.ModuleDir, filepath.FromSlash(rel))) {
				t.Errorf("%s's scope names %q, which is not a package directory of module %s", a.Name, path, loader.ModulePath)
			}
		}
	}
}

// binaryDecodeHomes are the only places non-test code may decode integers
// with encoding/binary, keyed by module-relative directory, file, or
// file:function. Everywhere else a peer's bytes are read through
// wire.Reader, which bounds every count by the bytes actually present.
var binaryDecodeHomes = map[string]string{
	"internal/wire":                      "the bounded reader itself",
	"internal/inp/frame.go:parseHeader":  "the fixed frame header; the body length is held to MaxBody and read in maxBodyReserve steps",
	"internal/codec/inflate.go":          "gzip and deflate fields, held to maxInflate and to compress/gzip by FuzzGzipDecode",
	"internal/inp/conformance/mutate.go": "the conformance harness's frame mutator, which reads frames it wrote",
}

// binaryDecoders are the encoding/binary functions and ByteOrder methods
// that turn bytes into integers.
var binaryDecoders = map[string]bool{
	"Uvarint": true, "Varint": true, "ReadUvarint": true, "ReadVarint": true, "Read": true,
	"Uint16": true, "Uint32": true, "Uint64": true,
}

// TestBinaryDecodeOnlyInBoundedReaders fails on an encoding/binary decode
// call outside binaryDecodeHomes: a hand-rolled binary.ReadUvarint in a
// codec decoder, say, would size memory from a peer's count that no
// bounded reader has checked. A home that no longer decodes anything
// fails it too, so the list cannot go stale.
func TestBinaryDecodeOnlyInBoundedReaders(t *testing.T) {
	loader := getLoader(t)
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			abs := pkg.Fset.Position(f.Package).Filename
			rel, err := filepath.Rel(loader.ModuleDir, abs)
			if err != nil {
				t.Fatal(err)
			}
			rel = filepath.ToSlash(rel)
			for _, decl := range f.Decls {
				fn := ""
				if fd, ok := decl.(*ast.FuncDecl); ok {
					fn = fd.Name.Name
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					obj, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
					if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "encoding/binary" || !binaryDecoders[obj.Name()] {
						return true
					}
					for _, home := range []string{filepath.ToSlash(filepath.Dir(rel)), rel, rel + ":" + fn} {
						if _, ok := binaryDecodeHomes[home]; ok {
							used[home] = true
							return true
						}
					}
					t.Errorf("%s: encoding/binary.%s decodes outside a bounded reader; read the bytes through wire.Reader", pkg.Fset.Position(sel.Pos()), obj.Name())
					return true
				})
			}
		}
	}
	for home := range binaryDecodeHomes {
		if !used[home] {
			t.Errorf("binaryDecodeHomes lists %s, which decodes nothing with encoding/binary; drop the entry", home)
		}
	}
}
