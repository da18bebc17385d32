package analysis

import (
	"go/ast"
	"go/token"
)

// The bottom-up function-summary engine. For every function of the
// analyzed package set (in the call graph's bottom-up order, iterating
// cycles to a fixpoint) it computes:
//
//	(a) taint transfer  — which results carry wire-derived integers
//	    (TaintSpec per result: unconditionally, or conditionally on the
//	    taint of specific parameters) and which integer parameters reach
//	    an allocation-size sink (make, slices.Grow, io.CopyN) unchecked
//	    — possibly through further calls;
//	(b) blocking        — the earliest operation by which the function may
//	    block indefinitely on a peer or another goroutine, as the one
//	    "may block" classifier (mayBlock) sees it, directly or
//	    transitively through in-set callees.
//
// Summaries let the flow-sensitive analyzers (wiretaint, lockheld) see one
// call deep — and, because summaries compose, arbitrarily many calls deep
// — without ever inlining bodies.

// FuncSummary is the interprocedural abstract of one function.
type FuncSummary struct {
	// block is the earliest site in this function that may block; its
	// desc is empty when nothing can.
	block blockSite

	// Taint transfer.
	Results    []TaintSpec      // per result, in signature order
	SinkParams map[int]SinkSite // parameter index → the sink it reaches
}

// TaintSpec describes the taint of one function result.
type TaintSpec struct {
	// Always marks a result that is wire-derived regardless of the
	// arguments (the function is itself a decoder); SrcPos is the decode
	// site that introduces the taint.
	Always bool
	SrcPos token.Pos
	// Params is a bitmask of parameter indices: the result is tainted iff
	// any of those arguments is tainted at the call site.
	Params uint64
}

// SinkSite is the allocation sink a tainted parameter reaches.
type SinkSite struct {
	Pos  token.Pos
	Desc string
}

// summarize computes every summary bottom-up, iterating each call-graph
// cycle until its members stabilize.
func (p *Program) summarize() {
	for i := 0; i < len(p.order); {
		j := i
		id := p.sccID[p.order[i]]
		for j < len(p.order) && p.sccID[p.order[j]] == id {
			j++
		}
		batch := p.order[i:j]
		for _, pf := range batch {
			pf.Summary = &FuncSummary{}
		}
		for round := 0; ; round++ {
			changed := false
			for _, pf := range batch {
				ns := &FuncSummary{block: p.summarizeBlocking(pf)}
				summarizeTaint(p, pf, ns)
				if !summaryEqual(pf.Summary, ns) {
					changed = true
				}
				pf.Summary = ns
			}
			// A monotone lattice over a finite SCC converges; the round cap
			// is a backstop against a non-monotone bug, not a budget.
			if !changed || round > len(batch)+8 {
				break
			}
		}
		i = j
	}
}

func summaryEqual(a, b *FuncSummary) bool {
	if a.block.pos != b.block.pos || len(a.Results) != len(b.Results) || len(a.SinkParams) != len(b.SinkParams) {
		return false
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			return false
		}
	}
	for k, v := range a.SinkParams {
		if b.SinkParams[k] != v {
			return false
		}
	}
	return true
}

// summarizeBlocking returns the earliest operation in the body that
// mayBlock classifies as blocking. Function-literal bodies and `go`
// statements are excluded — they do not block the caller at this point
// (literals are summarized only through the named functions that invoke
// them; a spawn's blocking belongs to the spawned goroutine) — and so are
// a select's communication clauses, which block as part of the select.
func (p *Program) summarizeBlocking(pf *ProgFunc) blockSite {
	var first blockSite
	var walk func(n ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false
			case *ast.CommClause:
				for _, st := range n.Body {
					walk(st)
				}
				return false
			}
			if site, ok := p.mayBlock(pf.Pkg, pf, n); ok && (first.desc == "" || site.pos < first.pos) {
				first = site
			}
			return true
		})
	}
	walk(pf.Decl.Body)
	return first
}

// shortFuncName renders a function compactly: "inp.ReadMessage",
// "proxy.Proxy.Negotiate".
func shortFuncName(pf *ProgFunc) string {
	fn := pf.Fn
	pkgName := ""
	if fn.Pkg() != nil {
		pkgName = fn.Pkg().Name() + "."
	}
	if pf.Decl.Recv != nil && len(pf.Decl.Recv.List) > 0 {
		recv := pf.Decl.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			return pkgName + id.Name + "." + fn.Name()
		}
	}
	return pkgName + fn.Name()
}
