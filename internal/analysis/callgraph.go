package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file builds the interprocedural substrate the summary engine
// (summary.go) and lockheld run on: an index
// of every function declaration in the analyzed package set and a static
// call graph over it. The graph is deliberately modest — exactly what a
// bottom-up summary computation needs:
//
//   - Direct calls (`f(...)`, `pkg.F(...)`) and method calls on concrete
//     receivers resolve through go/types to their *types.Func, which is
//     shared across packages because the loader type-checks the module as
//     one program.
//   - Method calls through an interface-typed expression are devirtualized
//     only when the concrete type is locally evident: the receiver is a
//     local variable assigned exactly once, from an expression whose
//     static type is concrete. Everything else stays unresolved.
//   - Calls through func values resolve only when the value is a local
//     variable assigned exactly once from an expression that directly
//     names an in-set function.
//
// Unresolved calls (interface dispatch, func-typed fields, channels of
// functions) contribute no edges: the summaries treat them as
// non-blocking. That is an unsoundness, documented in DESIGN.md
// ("Interprocedural analysis" — soundness caveats); the repo's blocking
// primitives are concrete calls in practice, and
// dynamic tests (the conformance oracle, the goroutine and idle-timeout
// tests of the serving loop) backstop what the static layer cannot see.

// Program is the interprocedural view of one Run's package set: the
// function index, the call graph, and (once Summarize ran) the per-function
// summaries.
type Program struct {
	fns map[*types.Func]*ProgFunc
	// order lists every indexed function bottom-up: callees before callers
	// wherever the graph is acyclic, members of a cycle adjacent.
	order []*ProgFunc
	// sccID groups mutually recursive functions; equal IDs share a cycle.
	sccID map[*ProgFunc]int
}

// ProgFunc is one declared function or method of the package set.
type ProgFunc struct {
	Fn      *types.Func
	Pkg     *Package
	Decl    *ast.FuncDecl
	Summary *FuncSummary

	callees []*ProgFunc
	// devirtVar maps interface-typed locals to the concrete type they are
	// provably bound to (single assignment, concrete RHS).
	devirtVar map[*types.Var]types.Type
	// funcVar maps func-typed locals to the in-set function they are
	// provably bound to (single assignment from a function name).
	funcVar map[*types.Var]*types.Func
}

// BuildProgram indexes the package set, resolves the call graph, and
// computes bottom-up function summaries.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		fns:   map[*types.Func]*ProgFunc{},
		sccID: map[*ProgFunc]int{},
	}
	// Pass 1: index declarations.
	var all []*ProgFunc
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				pf := &ProgFunc{Fn: fn, Pkg: pkg, Decl: fd}
				p.fns[fn] = pf
				all = append(all, pf)
			}
		}
	}
	// Pass 2: local bindings, then call edges (deduped, in source order so
	// everything downstream is deterministic).
	for _, pf := range all {
		pf.devirtVar, pf.funcVar = localBindings(p, pf)
	}
	for _, pf := range all {
		seen := map[*ProgFunc]bool{}
		ast.Inspect(pf.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := p.resolve(pf, call); callee != nil && !seen[callee] {
				seen[callee] = true
				pf.callees = append(pf.callees, callee)
			}
			return true
		})
	}
	p.computeSCCs(all)
	p.summarize()
	return p
}

// FuncOf returns the indexed function for fn, or nil when fn has no body
// in the analyzed set (imports, interface methods, builtins).
func (p *Program) FuncOf(fn *types.Func) *ProgFunc {
	if p == nil || fn == nil {
		return nil
	}
	return p.fns[fn]
}

// resolveCall is resolve for callers outside the program build: it
// tolerates a nil Program (no interprocedural view) and a nil enclosing
// function (direct names still resolve; locally-evident bindings do not).
func (p *Program) resolveCall(pkg *Package, pf *ProgFunc, call *ast.CallExpr) *ProgFunc {
	if p == nil {
		return nil
	}
	if pf == nil {
		pf = &ProgFunc{Pkg: pkg}
	}
	return p.resolve(pf, call)
}

// resolve maps one call expression to its in-set callee, or nil. pf (the
// enclosing function) supplies the locally-evident bindings; it may be nil
// for calls outside any indexed body.
func (p *Program) resolve(pf *ProgFunc, call *ast.CallExpr) *ProgFunc {
	pkg := pf.Pkg
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[fun].(type) {
		case *types.Func:
			return p.fns[obj]
		case *types.Var:
			if pf.funcVar != nil {
				if target, ok := pf.funcVar[obj]; ok {
					return p.fns[target]
				}
			}
		}
	case *ast.SelectorExpr:
		fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func)
		if !ok {
			// Func-typed field or variable selector: unresolved.
			return nil
		}
		if target := p.fns[fn]; target != nil {
			return target
		}
		// Interface method: devirtualize when the receiver's concrete type
		// is locally evident.
		if isInterfaceMethod(fn) && pf.devirtVar != nil {
			if id, ok := fun.X.(*ast.Ident); ok {
				if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
					if concrete, ok := pf.devirtVar[v]; ok {
						if m := lookupMethod(concrete, pkg, fn.Name()); m != nil {
							return p.fns[m]
						}
					}
				}
			}
		}
	}
	return nil
}

// identVar resolves an identifier expression to the variable it declares
// or uses, or nil (blank, non-variable, or not an identifier).
func identVar(pkg *Package, e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := pkg.Info.Uses[id].(*types.Var)
	return v
}

// isInterfaceMethod reports whether fn's receiver is an interface type.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, isIface := sig.Recv().Type().Underlying().(*types.Interface)
	return isIface
}

// lookupMethod resolves name on the concrete type t (or *t).
func lookupMethod(t types.Type, pkg *Package, name string) *types.Func {
	var tpkg *types.Package
	if pkg.Types != nil {
		tpkg = pkg.Types
	}
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		obj, _, _ := types.LookupFieldOrMethod(typ, true, tpkg, name)
		if m, ok := obj.(*types.Func); ok {
			return m
		}
	}
	return nil
}

// localBindings computes the two locally-evident maps for one function:
// interface-typed locals bound to a single concrete type, and func-typed
// locals bound to a single named function. A variable assigned more than
// once (or whose address is taken) is dropped — the binding is no longer
// evident.
func localBindings(p *Program, pf *ProgFunc) (map[*types.Var]types.Type, map[*types.Var]*types.Func) {
	pkg := pf.Pkg
	assigns := map[*types.Var]int{}
	concrete := map[*types.Var]types.Type{}
	fnBind := map[*types.Var]*types.Func{}
	record := func(id *ast.Ident, rhs ast.Expr) {
		v := identVar(pkg, id)
		if v == nil || v.IsField() {
			return
		}
		assigns[v]++
		if assigns[v] > 1 {
			delete(concrete, v)
			delete(fnBind, v)
			return
		}
		// Interface-typed variable, concrete RHS type.
		if _, isIface := v.Type().Underlying().(*types.Interface); isIface {
			if tv, ok := pkg.Info.Types[rhs]; ok && tv.Type != nil {
				if _, rhsIface := tv.Type.Underlying().(*types.Interface); !rhsIface {
					concrete[v] = tv.Type
				}
			}
		}
		// Func-typed variable bound to a named in-set function.
		if _, isSig := v.Type().Underlying().(*types.Signature); isSig {
			var named *types.Func
			switch r := rhs.(type) {
			case *ast.Ident:
				named, _ = pkg.Info.Uses[r].(*types.Func)
			case *ast.SelectorExpr:
				named, _ = pkg.Info.Uses[r.Sel].(*types.Func)
			}
			if named != nil && p.fns[named] != nil {
				fnBind[v] = named
			}
		}
	}
	ast.Inspect(pf.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						record(id, nil)
						record(id, nil) // multi-value: never evident
					}
				}
				return true
			}
			for i := range n.Lhs {
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					record(id, n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if i < len(n.Values) {
					record(id, n.Values[i])
				}
			}
		case *ast.UnaryExpr:
			// &x: the variable can be rebound through the pointer.
			if id, ok := n.X.(*ast.Ident); ok {
				record(id, nil)
				record(id, nil)
			}
		}
		return true
	})
	if len(concrete) == 0 {
		concrete = nil
	}
	if len(fnBind) == 0 {
		fnBind = nil
	}
	return concrete, fnBind
}

// computeSCCs runs Tarjan's algorithm over the call graph, filling
// p.order with a deterministic bottom-up ordering (SCCs in completion
// order, callees before callers across SCCs) and p.sccID.
func (p *Program) computeSCCs(all []*ProgFunc) {
	// Deterministic node order: by source position.
	sort.Slice(all, func(i, j int) bool { return all[i].Decl.Pos() < all[j].Decl.Pos() })
	index := map[*ProgFunc]int{}
	low := map[*ProgFunc]int{}
	onStack := map[*ProgFunc]bool{}
	var stack []*ProgFunc
	next := 0
	sccs := 0

	var strongconnect func(v *ProgFunc)
	strongconnect = func(v *ProgFunc) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range v.callees {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			id := sccs
			sccs++
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				p.sccID[w] = id
				p.order = append(p.order, w)
				if w == v {
					break
				}
			}
		}
	}
	for _, v := range all {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
}
