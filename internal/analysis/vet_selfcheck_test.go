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
// digests ad hoc, or holds a lock across a network exchange fails this
// test. The invariants of the retired goleak, opcomplete, deadline,
// wiretaint and hotpath analyzers are pinned by tests instead (DESIGN.md,
// "Analyzer receipts").
func TestVetSelfCheck(t *testing.T) {
	loader := getLoader(t)
	pkgs, err := loader.loadAll()
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
// bounded reader has checked.
func TestBinaryDecodeOnlyInBoundedReaders(t *testing.T) {
	checkHomes(t, binaryDecodeHomes, func(fn *types.Func) bool {
		return fn.Pkg().Path() == "encoding/binary" && binaryDecoders[fn.Name()]
	}, "encoding/binary.%s decodes outside a bounded reader; read the bytes through wire.Reader")
}

// sessionBorrowHomes are the only functions that may take an
// arena.Session's buffers. Their storage is recycled at Release, so a
// buffer stored where it outlives the session is overwritten under its
// holder.
var sessionBorrowHomes = map[string]string{
	"internal/inp/conn.go:NewConnSession": "the read window and body buffer, stored in the Conn, which shares the session's lifetime",
}

// TestSessionBorrowsOnlyInConn fails on a call of (*arena.Session).Buffers
// outside sessionBorrowHomes: a session buffer kept in a field, a package
// variable or a channel elsewhere would outlive the session it came from.
func TestSessionBorrowsOnlyInConn(t *testing.T) {
	checkHomes(t, sessionBorrowHomes, func(fn *types.Func) bool {
		sig := fn.Type().(*types.Signature)
		return sig.Recv() != nil && named(sig.Recv().Type()) == "fractal/internal/arena.Session" && fn.Name() == "Buffers"
	}, "(*arena.Session).%s takes session storage outside inp's connection, where nothing ties it to the session's lifetime")
}

// checkHomes fails on every use, in the module's non-test code, of a
// function that match selects outside homes, which are keyed by
// module-relative directory, file, or file:function; msg formats the
// function's name. A home that uses none fails it too, so the list cannot
// go stale.
func checkHomes(t *testing.T, homes map[string]string, match func(*types.Func) bool, msg string) {
	t.Helper()
	loader := getLoader(t)
	pkgs, err := loader.loadAll()
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
					if !ok || obj.Pkg() == nil || !match(obj) {
						return true
					}
					for _, home := range []string{filepath.ToSlash(filepath.Dir(rel)), rel, rel + ":" + fn} {
						if _, ok := homes[home]; ok {
							used[home] = true
							return true
						}
					}
					t.Errorf("%s: "+msg, pkg.Fset.Position(sel.Pos()), obj.Name())
					return true
				})
			}
		}
	}
	for home := range homes {
		if !used[home] {
			t.Errorf("%s is listed as a home but calls nothing the test guards; drop the entry", home)
		}
	}
}
