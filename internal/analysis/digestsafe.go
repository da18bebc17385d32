package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// digestSize is sha1.Size: the length of the digest arrays this analyzer
// protects.
const digestSize = 20

// digestHelperNames are the designated comparison helpers whose bodies are
// exempt — everything else must call them instead of comparing raw digest
// bytes. Signature checks go through ed25519.Verify, which never exposes
// raw bytes for comparison in the first place.
var digestHelperNames = map[string]bool{
	"DigestEqual": true,
	"digestEqual": true,
}

// DigestsafeAnalyzer requires SHA-1 digest equality checks in the PAD
// deployment pipeline to go through the designated constant-time helper
// (mobilecode.DigestEqual) rather than ad-hoc == / bytes.Equal on raw
// digests, so verification policy (constant-time compare, future
// algorithm agility) lives in exactly one place.
var DigestsafeAnalyzer = &Analyzer{
	Name: "digestsafe",
	Run:  runDigestsafe,
	// The PAD verification pipeline. Digest comparisons elsewhere (for
	// example the rsync encoder's block-dedup hash-table probe) are content
	// addressing, not verification, and stay free to use plain comparisons.
	scope: []string{"fractal/internal/mobilecode", "fractal/internal/cdn", "fractal/internal/client"},
}

func runDigestsafe(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if digestHelperNames[fd.Name.Name] {
				continue // the one place allowed to touch raw digest bytes
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.BinaryExpr:
					if e.Op != token.EQL && e.Op != token.NEQ {
						return true
					}
					if isDigestArray(pass, e.X) || isDigestArray(pass, e.Y) {
						pass.Reportf(e.OpPos,
							"raw SHA-1 digest compared with %s; use the designated DigestEqual helper", e.Op)
					}
				case *ast.CallExpr:
					sel, ok := e.Fun.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Equal" || packageOf(pass, f, sel) != "bytes" {
						return true
					}
					for _, arg := range e.Args {
						if sl, ok := arg.(*ast.SliceExpr); ok && isDigestArray(pass, sl.X) {
							pass.Reportf(e.Pos(),
								"raw SHA-1 digest compared with bytes.Equal; use the designated DigestEqual helper")
							break
						}
					}
				}
				return true
			})
		}
	}
}

// isDigestArray reports whether the expression's static type is a
// [20]byte digest array (directly or behind a defined type).
func isDigestArray(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	arr, ok := tv.Type.Underlying().(*types.Array)
	return ok && arr.Len() == digestSize && isByte(arr.Elem())
}
