package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// errdiscardWatched are the method/function names on I/O and codec paths
// whose errors must not be discarded. Close is deliberately absent: `_ =
// c.Close()` in a defer is idiomatic and harmless.
var errdiscardWatched = map[string]bool{
	"Read":   true,
	"Write":  true,
	"Encode": true,
	"Decode": true,
	"Flush":  true,
}

// ErrdiscardAnalyzer flags discarded error returns (and Read byte counts
// that are discarded or only compared with 0 — the short-read bug class
// latent in codec framing code) on io.Reader/io.Writer and codec
// encode/decode paths.
var ErrdiscardAnalyzer = &Analyzer{
	Name: "errdiscard",
	Run:  runErrdiscard,
}

func runErrdiscard(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Rhs) != 1 {
					return true
				}
				call, ok := st.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				checkAssignedCall(pass, f, st, call)
			case *ast.ExprStmt:
				call, ok := st.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn, sig := watchedCallee(pass, call); fn != nil && hasErrorResult(sig) {
					pass.Reportf(call.Pos(),
						"all results of %s dropped, including its error; handle or explicitly check it",
						calleeLabel(fn))
				}
			}
			return true
		})
	}
}

// checkAssignedCall flags a Read count that is blank or only compared with
// 0 (either way a short read goes unseen), and a blank in the error
// position of any watched call.
func checkAssignedCall(pass *Pass, f *ast.File, st *ast.AssignStmt, call *ast.CallExpr) {
	fn, sig := watchedCallee(pass, call)
	if fn == nil {
		return
	}
	results := sig.Results()
	if len(st.Lhs) != results.Len() {
		return
	}
	if fn.Name() == "Read" && isReaderShape(sig) {
		if isBlank(st.Lhs[0]) {
			pass.Reportf(st.Lhs[0].Pos(),
				"discarding the byte count from %s risks acting on a silent short read; use io.ReadFull",
				calleeLabel(fn))
		} else if v := identVar(pass.Pkg, st.Lhs[0]); v != nil && onlyZeroCompared(pass, f, v) {
			pass.Reportf(st.Lhs[0].Pos(),
				"the byte count from %s is only compared with 0, so a short read passes as a full one; use io.ReadFull",
				calleeLabel(fn))
		}
	}
	for i := 0; i < results.Len(); i++ {
		if !isErrorType(results.At(i).Type()) || !isBlank(st.Lhs[i]) {
			continue
		}
		pass.Reportf(st.Lhs[i].Pos(),
			"error from %s discarded; handle it or propagate it",
			calleeLabel(fn))
	}
}

// onlyZeroCompared reports whether every use of v in f is an operand of a
// comparison with the constant 0.
func onlyZeroCompared(pass *Pass, f *ast.File, v *types.Var) bool {
	compared := map[*ast.Ident]bool{}
	uses, other := 0, false
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
				for _, pair := range [2][2]ast.Expr{{n.X, n.Y}, {n.Y, n.X}} {
					if id, ok := pair[0].(*ast.Ident); ok && isZero(pass, pair[1]) {
						compared[id] = true
					}
				}
			}
		case *ast.Ident:
			if pass.Pkg.Info.Uses[n] == v {
				uses++
				other = other || !compared[n]
			}
		}
		return true
	})
	return uses > 0 && !other
}

// isZero reports whether e is the integer constant 0.
func isZero(pass *Pass, e ast.Expr) bool {
	tv := pass.Pkg.Info.Types[e]
	return tv.Value != nil && tv.Value.Kind() == constant.Int && constant.Sign(tv.Value) == 0
}

// watchedCallee resolves a call to a watched I/O/codec function, returning
// nil for unwatched or exempt callees (bytes.Buffer, strings.Builder, and
// arena.Buffer writes cannot fail by contract).
func watchedCallee(pass *Pass, call *ast.CallExpr) (*types.Func, *types.Signature) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil, nil
	}
	if !errdiscardWatched[id.Name] {
		return nil, nil
	}
	fn, ok := pass.Pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return nil, nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, nil
	}
	if recv := sig.Recv(); recv != nil {
		switch named(recv.Type()) {
		case "bytes.Buffer", "strings.Builder", "fractal/internal/arena.Buffer":
			return nil, nil
		}
	}
	return fn, sig
}

// isReaderShape reports whether sig is Read([]byte) (int, error) — the
// io.Reader method shape whose count result encodes short reads.
func isReaderShape(sig *types.Signature) bool {
	if sig.Params().Len() != 1 || sig.Results().Len() != 2 {
		return false
	}
	if s, ok := sig.Params().At(0).Type().(*types.Slice); !ok || !isByte(s.Elem()) {
		return false
	}
	r0, ok := sig.Results().At(0).Type().(*types.Basic)
	return ok && r0.Kind() == types.Int && isErrorType(sig.Results().At(1).Type())
}

// hasErrorResult reports whether the signature's last result is an error.
func hasErrorResult(sig *types.Signature) bool {
	n := sig.Results().Len()
	return n > 0 && isErrorType(sig.Results().At(n-1).Type())
}

// calleeLabel renders "(recv).Name" or "pkg.Name" for diagnostics.
func calleeLabel(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok {
		if recv := sig.Recv(); recv != nil {
			return "(" + types.TypeString(recv.Type(), nil) + ")." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// named returns the "pkg.Type" form of a possibly-pointer named type.
func named(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// isBlank reports whether the expression is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// isByte reports whether t is byte/uint8.
func isByte(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}
