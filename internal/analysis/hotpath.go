package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// HotpathPrefix marks a function whose allocs/op are pinned by the
// benchmark snapshots: `//fractal:hotpath` on the line above (or in the
// doc comment of) a function declaration opts it into per-call allocation
// checks.
const HotpathPrefix = "fractal:hotpath"

// HotpathAnalyzer checks annotated hot functions for constructs that
// allocate on every call: function literals capturing outer variables
// (heap-escaping closures), fmt formatting, map/slice composite literals
// inside loops, append growth in loops without preallocation, and
// interface boxing of non-pointer values. It is annotation-driven and runs
// in every package.
//
// Independent of annotations it also enforces the arena lifetime rule with
// the taint engine (arenaTaint): a session-scoped buffer
// (arena.Session Bytes/Grow) is recycled when the connection releases its
// session, so storing one into a struct field, a package-level variable,
// or a channel would let the storage be overwritten under the escapee.
// The rare legitimate store — a field of an object that provably shares
// the session's lifetime — is annotated.
var HotpathAnalyzer = &Analyzer{
	Name: "hotpath",
	Run:  runHotpath,
}

func runHotpath(pass *Pass) {
	hot := hotFuncs(pass)
	// Without a session borrow the taint engine has no source, so only hot
	// functions and borrowing ones need a CFG.
	want := func(fd *ast.FuncDecl) bool {
		keep := hot[fd]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			keep = keep || ok && isSessionBorrow(pass.Pkg, call)
			return !keep
		})
		return keep
	}
	forEachFunc(pass, want, func(fd *ast.FuncDecl, _ *ProgFunc, g *CFG) {
		(&arenaTaint{pass: pass, fd: fd}).run(g)
		if hot[fd] {
			checkHotFunc(pass, fd, g)
		}
	})
}

// arenaTaint is the taint engine over one function's CFG, with its arena
// rule set: a borrow from an arena session ((*arena.Session) Bytes/Grow)
// is the source, taint follows assignments, slicing, parens, &, composite
// literals and the first argument of the builtin append, and the borrow
// must not be stored where it outlives the session. It is a may analysis:
// a variable is tainted when any path may leave a borrow in it, and
// assigning it a clean value clears it.
type arenaTaint struct {
	pass *Pass
	fd   *ast.FuncDecl
}

// taintFact is the set of variables that may hold a session borrow.
type taintFact map[*types.Var]bool

// run solves the fixpoint over g and replays each block once to report.
func (c *arenaTaint) run(g *CFG) {
	solve(g, FlowAnalysis[taintFact]{
		Entry:    func() taintFact { return taintFact{} },
		Transfer: func(b *Block, in taintFact) taintFact { return c.transfer(b, in, false) },
		Join: func(a, b taintFact) taintFact {
			out := maps.Clone(a)
			maps.Copy(out, b)
			return out
		},
		Equal: func(a, b taintFact) bool { return maps.Equal(a, b) },
	}, func(b *Block, in taintFact) { c.transfer(b, in, true) })
}

// transfer pushes the taint set through one block; with final set it also
// checks each node for a sink under the fact before it.
func (c *arenaTaint) transfer(b *Block, in taintFact, final bool) taintFact {
	fact := in
	mutate := cow(&fact)
	for _, node := range b.Nodes {
		if final {
			c.sinks(node, fact)
		}
		switch n := node.(type) {
		case *ast.AssignStmt:
			c.assign(n.Lhs, n.Rhs, fact, mutate)
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
						lhs := make([]ast.Expr, len(vs.Names))
						for i, id := range vs.Names {
							lhs[i] = id
						}
						c.assign(lhs, vs.Values, fact, mutate)
					}
				}
			}
		}
	}
	return fact
}

// assign applies strong updates: a variable assigned a tainted value
// becomes tainted, one assigned a clean value becomes clean. A borrow is
// a single result, so every multi-value form assigns clean values.
func (c *arenaTaint) assign(lhs, rhs []ast.Expr, fact taintFact, mutate func() taintFact) {
	for i, l := range lhs {
		v := identVar(c.pass.Pkg, l)
		if v == nil {
			continue
		}
		if len(rhs) == len(lhs) && c.tainted(rhs[i], fact) {
			mutate()[v] = true
		} else if fact[v] {
			delete(mutate(), v)
		}
	}
}

// tainted reports whether an expression's value may be a session borrow
// under the current fact.
func (c *arenaTaint) tainted(e ast.Expr, fact taintFact) bool {
	switch e := e.(type) {
	case *ast.Ident:
		v, ok := c.pass.Pkg.Info.Uses[e].(*types.Var)
		return ok && fact[v]
	case *ast.ParenExpr:
		return c.tainted(e.X, fact)
	case *ast.UnaryExpr:
		return c.tainted(e.X, fact)
	case *ast.SliceExpr:
		return c.tainted(e.X, fact)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if c.tainted(elt, fact) {
				return true
			}
		}
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && len(e.Args) > 0 {
			if b, ok := c.pass.Pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
				return c.tainted(e.Args[0], fact) // append may return its first argument's storage
			}
		}
		return isSessionBorrow(c.pass.Pkg, e)
	}
	return false
}

// sinks reports a session borrow stored into a struct field or a
// package-level variable, or sent on a channel.
func (c *arenaTaint) sinks(node ast.Node, fact taintFact) {
	switch n := node.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) != len(n.Rhs) {
			return
		}
		for i, lhs := range n.Lhs {
			if !c.tainted(n.Rhs[i], fact) {
				continue
			}
			if _, ok := lhs.(*ast.SelectorExpr); ok {
				c.pass.Reportf(lhs.Pos(),
					"session arena buffer stored into field %s outlives its session in %s; the storage is recycled at Session.Release (or annotate with //%s hotpath if the field shares the session's lifetime)",
					types.ExprString(lhs), c.fd.Name.Name, AllowPrefix)
			} else if v := identVar(c.pass.Pkg, lhs); v != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				c.pass.Reportf(lhs.Pos(),
					"session arena buffer stored into package variable %s outlives its session in %s (or annotate with //%s hotpath)",
					v.Name(), c.fd.Name.Name, AllowPrefix)
			}
		}
	case *ast.SendStmt:
		if c.tainted(n.Value, fact) {
			c.pass.Reportf(n.Pos(),
				"session arena buffer sent on a channel escapes its session in %s; the storage is recycled at Session.Release (or annotate with //%s hotpath)",
				c.fd.Name.Name, AllowPrefix)
		}
	}
}

// isSessionBorrow reports whether call borrows storage from an arena
// session ((*arena.Session).Bytes or Grow).
func isSessionBorrow(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	if named(sig.Recv().Type()) != "fractal/internal/arena.Session" {
		return false
	}
	return fn.Name() == "Bytes" || fn.Name() == "Grow"
}

// hotFuncs returns the declarations carrying the hotpath marker: in the
// doc comment, or in a comment ending on the line directly above the
// declaration or its doc comment (matching how //fractal:allow binds to
// the following line).
func hotFuncs(pass *Pass) map[*ast.FuncDecl]bool {
	hot := map[*ast.FuncDecl]bool{}
	for _, f := range pass.Pkg.Files {
		markerEnds := map[int]bool{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), HotpathPrefix) {
					markerEnds[pass.Fset.Position(c.End()).Line] = true
				}
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			top := fd.Pos()
			if fd.Doc != nil {
				top = fd.Doc.Pos()
			}
			for line := pass.Fset.Position(top).Line - 1; line < pass.Fset.Position(fd.Pos()).Line; line++ {
				hot[fd] = hot[fd] || markerEnds[line]
			}
		}
	}
	return hot
}

// checkHotFunc applies the per-call allocation checks to one CFG of an
// annotated function (its body or a literal inside it), using the CFG for
// loop depth.
func checkHotFunc(pass *Pass, fd *ast.FuncDecl, g *CFG) {
	prealloc := preallocatedKeys(pass, fd.Body)
	for _, b := range g.Blocks {
		if b.Deferred {
			// The deferred-call replay duplicates expressions already
			// present in-line at the DeferStmt.
			continue
		}
		for _, node := range b.Nodes {
			checkHotNode(pass, fd, node, b.LoopDepth, prealloc)
		}
	}
}

// preallocatedKeys records the expressions whose backing storage was
// visibly sized up front — `x := make([]T, 0, n)`, `x = slices.Grow(x, n)`,
// and composite-literal fields initialised with make — so append growth to
// them inside loops is amortised, not per-iteration.
func preallocatedKeys(pass *Pass, body *ast.BlockStmt) map[string]bool {
	keys := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			lhsKey := types.ExprString(as.Lhs[i])
			switch r := rhs.(type) {
			case *ast.CallExpr:
				if isMakeCall(pass, r) || isGrowCall(pass, r) {
					keys[lhsKey] = true
				}
			case *ast.CompositeLit:
				for _, elt := range r.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if call, ok := kv.Value.(*ast.CallExpr); ok && isMakeCall(pass, call) {
						keys[lhsKey+"."+types.ExprString(kv.Key)] = true
					}
				}
			case *ast.SliceExpr:
				// x := buf[:0] reuses existing storage.
				keys[lhsKey] = true
			}
		}
		return true
	})
	return keys
}

func isMakeCall(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	bi, ok := pass.Pkg.Info.Uses[id].(*types.Builtin)
	return ok && bi.Name() == "make"
}

func isGrowCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "slices" && fn.Name() == "Grow"
}

// checkHotNode walks one block node reporting per-call allocation
// constructs. Nested function literals are not descended into (their
// bodies have their own CFGs); the literal itself is checked for captures.
func checkHotNode(pass *Pass, fd *ast.FuncDecl, node ast.Node, loopDepth int, prealloc map[string]bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if capt := capturedVar(pass, n); capt != nil {
				pass.Reportf(n.Pos(),
					"closure capturing %q allocates per call in hot function %s; hoist it to a named function or restructure (or annotate with //%s hotpath)",
					capt.Name(), fd.Name.Name, AllowPrefix)
			}
			return false
		case *ast.CompositeLit:
			if loopDepth > 0 && isMapOrSliceLit(pass, n) {
				pass.Reportf(n.Pos(),
					"map/slice literal inside a loop allocates per iteration in hot function %s; hoist it out of the loop (or annotate with //%s hotpath)",
					fd.Name.Name, AllowPrefix)
			}
		case *ast.CallExpr:
			checkHotCall(pass, fd, n, loopDepth, prealloc)
		}
		return true
	})
}

// capturedVar returns a variable the literal captures from an enclosing
// function scope (forcing both the closure and the variable to the heap),
// or nil when the literal only uses its own and package-level names.
func capturedVar(pass *Pass, lit *ast.FuncLit) *types.Var {
	var captured *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // the literal's own parameter or local
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level: no capture
		}
		captured = v
		return false
	})
	return captured
}

// isMapOrSliceLit reports whether the composite literal builds a map or
// slice (both allocate; struct and array literals need not).
func isMapOrSliceLit(pass *Pass, lit *ast.CompositeLit) bool {
	tv, ok := pass.Pkg.Info.Types[lit]
	if !ok || tv.Type == nil {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map, *types.Slice:
		return true
	}
	return false
}

// checkHotCall flags fmt formatting, unpreallocated append growth in
// loops, and interface boxing of non-pointer values.
func checkHotCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, loopDepth int, prealloc map[string]bool) {
	// fmt formatting allocates for the format machinery and boxes every
	// operand. fmt.Errorf is exempt: error paths are off the hot path.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			if fmtFormatting[fn.Name()] {
				pass.Reportf(call.Pos(),
					"fmt.%s formats (and boxes its operands) per call in hot function %s; build the string by hand (or annotate with //%s hotpath)",
					fn.Name(), fd.Name.Name, AllowPrefix)
			}
			return // don't double-report operand boxing on any fmt call
		}
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if bi, ok := pass.Pkg.Info.Uses[id].(*types.Builtin); ok {
			if bi.Name() == "append" && loopDepth > 0 && len(call.Args) > 0 {
				dst := types.ExprString(call.Args[0])
				if !prealloc[dst] {
					pass.Reportf(call.Pos(),
						"append to %s inside a loop without visible preallocation reallocates as it grows in hot function %s; size it with make(..., 0, n) first (or annotate with //%s hotpath)",
						dst, fd.Name.Name, AllowPrefix)
				}
			}
			return
		}
	}
	checkBoxing(pass, fd, call)
}

// fmtFormatting is the fmt API that formats into fresh storage.
var fmtFormatting = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Fprintf": true, "Fprint": true, "Fprintln": true,
	"Printf": true, "Print": true, "Println": true,
	"Appendf": true, "Append": true, "Appendln": true,
}

// checkBoxing reports non-constant basic/struct/array values passed to
// interface parameters: converting them to an interface allocates.
func checkBoxing(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	tv, ok := pass.Pkg.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return // conversion, not a call
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		atv, ok := pass.Pkg.Info.Types[arg]
		if !ok || atv.Type == nil || atv.Value != nil {
			continue // untyped or constant: may be folded, skip
		}
		switch atv.Type.Underlying().(type) {
		case *types.Basic, *types.Struct, *types.Array:
			pass.Reportf(arg.Pos(),
				"passing %s (%s) to an interface parameter boxes it on the heap per call in hot function %s; pass a pointer or avoid the interface (or annotate with //%s hotpath)",
				types.ExprString(arg), shortType(atv.Type), fd.Name.Name, AllowPrefix)
		}
	}
}

// shortType renders a type compactly for messages.
func shortType(t types.Type) string {
	s := t.String()
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		s = s[i+1:]
	}
	if len(s) > 40 {
		s = fmt.Sprintf("%.37s...", s)
	}
	return s
}
