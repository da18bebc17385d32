package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// WiretaintAnalyzer runs the taint engine's wire rule set over each
// function's CFG: integers produced by wire decoders (binary.ReadUvarint,
// ByteOrder Uint16/32/64, local wrappers, and — via the summary engine —
// any in-set function whose result is wire-derived) are tainted; branch
// conditions that upper-bound a tainted variable against a sane limit
// sanitize it on the guarded edge; tainted values reaching an
// allocation-size sink (make, slices.Grow, io.CopyN — directly or as an
// argument to a function whose summary says the parameter reaches such a
// sink) are reported. The interprocedural halves both come from
// summary.go, so taint laundered through any number of helper calls is
// still caught.
var WiretaintAnalyzer = &Analyzer{
	Name: "wiretaint",
	Doc:  "flag wire-decoded integers flowing into allocation sizes without a bound check",
	Run:  runWiretaint,
	// The packages that decode attacker-controlled bytes: the INP framing
	// plane and the delta codec. Everywhere else, integers do not arrive
	// from a peer.
	scope: []string{"fractal/internal/inp", "fractal/internal/codec"},
}

// taintBoundMax is the largest constant upper bound that counts as a
// sanitizer. Comparing a wire integer against 64 MB and then allocating it
// is exactly the hostile-header bug, so huge constants do not launder
// taint.
const taintBoundMax = 1 << 24

// taintRules is one rule set of the taint engine: what introduces taint,
// which variables carry it, and where it must not arrive. The wire rule
// set is below; the arena rule set is hotpath's.
type taintRules struct {
	// source recognizes a call whose (first) result is tainted.
	source func(pkg *Package, call *ast.CallExpr) bool
	// ints restricts tracking to integer variables and turns on the
	// integer transfer: conversions, min/max clamps, callee summaries,
	// and bound-check sanitization on branch edges.
	ints bool
	// sinks reports (or, while summarizing, records) taint arriving where
	// the rule set forbids it, in one CFG node under the fact before it.
	sinks func(c *taintCtx, node ast.Node, fact taintFact)
}

// wireRules: wire-decoded integers must not size an allocation unchecked.
var wireRules = &taintRules{source: isWireSource, ints: true, sinks: (*taintCtx).checkSinks}

// taintedBit marks a value as tainted. The remaining bits are parameter
// indices — "tainted iff parameter i is" — used only while computing a
// function's summary.
const taintedBit = uint64(1) << 63

// taintVal is the abstract value of one variable: which taint it may
// carry, and (when tainted) the earliest source site that introduced it,
// for related-location reporting.
type taintVal struct {
	mask uint64
	src  token.Pos
}

func (v taintVal) tainted() bool { return v.mask&taintedBit != 0 }
func (v taintVal) zero() bool    { return v.mask == 0 }

// joinVal unions the masks and keeps the earliest valid source.
func joinVal(a, b taintVal) taintVal {
	out := taintVal{mask: a.mask | b.mask, src: a.src}
	if !out.src.IsValid() || (b.src.IsValid() && b.src < out.src) {
		out.src = b.src
	}
	return out
}

// taintFact is the may-taint set. Join is pointwise union.
type taintFact map[*types.Var]taintVal

func taintJoin(a, b taintFact) taintFact {
	out := make(taintFact, len(a)+len(b))
	for v, tv := range a {
		out[v] = tv
	}
	for v, tv := range b {
		out[v] = joinVal(out[v], tv)
	}
	return out
}

func taintEqual(a, b taintFact) bool {
	if len(a) != len(b) {
		return false
	}
	for v, tv := range a {
		if b[v] != tv {
			return false
		}
	}
	return true
}

func runWiretaint(pass *Pass) {
	forEachFunc(pass, nil, func(fd *ast.FuncDecl, pf *ProgFunc, g *CFG) {
		c := &taintCtx{pass: pass, pkg: pass.Pkg, prog: pass.Prog, pf: pf, fd: fd, rules: wireRules}
		c.run(g, taintFact{})
	})
}

// summarizeTaint computes the taint-transfer half of pf's summary: which
// results are wire-derived (unconditionally or via parameters) and which
// integer parameters flow into allocation sinks unchecked. It reuses the
// same engine the analyzer runs, with parameters seeded as symbolic taint
// and no reporting.
func summarizeTaint(p *Program, pf *ProgFunc, s *FuncSummary) {
	sig, ok := pf.Fn.Type().(*types.Signature)
	if !ok {
		return
	}
	c := &taintCtx{pkg: pf.Pkg, prog: p, pf: pf, fd: pf.Decl, rules: wireRules, results: sig.Results()}
	entry := taintFact{}
	for i := 0; i < sig.Params().Len() && i < 62; i++ {
		if v := sig.Params().At(i); isIntegerVar(v) {
			entry[v] = taintVal{mask: uint64(1) << uint(i)}
		}
	}
	c.run(BuildCFG(pf.Decl.Body), entry)
	s.Results, s.SinkParams = c.resultSpecs, c.sinkParams
}

// taintCtx is one engine instance over one function under one rule set:
// reporting mode (pass != nil) for the analyzers, collect mode for
// summaries. pf and prog may be nil; callees then stay unresolved.
type taintCtx struct {
	pass     *Pass
	pkg      *Package
	prog     *Program
	pf       *ProgFunc
	fd       *ast.FuncDecl
	rules    *taintRules
	wrappers map[*types.Var]bool

	// collect mode
	results     *types.Tuple
	resultSpecs []TaintSpec
	sinkParams  map[int]SinkSite
}

// run executes the fixpoint and the reporting/collection replay over g, a
// CFG of the declaration fd or of a function literal inside it.
func (c *taintCtx) run(g *CFG, entry taintFact) {
	c.wrappers = c.sourceWrappers(c.fd.Body)
	an := FlowAnalysis[taintFact]{
		Entry:    func() taintFact { return entry },
		Transfer: func(b *Block, in taintFact) taintFact { return c.transfer(b, in, false) },
		Join:     taintJoin,
		Equal:    taintEqual,
	}
	if c.rules.ints {
		an.Refine = c.refine
	}
	solve(g, an, func(b *Block, in taintFact) { c.transfer(b, in, true) })
}

// sourceWrappers finds one level of local indirection over the sources:
// `readU := func(...) ... { ... binary.ReadUvarint ... }`. Calls through
// such a variable taint their first result like the source itself.
func (c *taintCtx) sourceWrappers(body *ast.BlockStmt) map[*types.Var]bool {
	wrappers := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		lit, ok := as.Rhs[0].(*ast.FuncLit)
		v := identVar(c.pkg, as.Lhs[0])
		if !ok || v == nil {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok && c.rules.source(c.pkg, call) {
				wrappers[v] = true
			}
			return !wrappers[v]
		})
		return true
	})
	return wrappers
}

// isSource reports whether the call introduces taint: a source of the
// rule set, or a call through a local wrapper of one.
func (c *taintCtx) isSource(call *ast.CallExpr) bool {
	if v := identVar(c.pkg, call.Fun); v != nil && c.wrappers[v] {
		return true
	}
	return c.rules.source(c.pkg, call)
}

// transfer pushes the taint set through one block; with final set it also
// hands each node to the rule set's sinks and, in collect mode,
// accumulates result specs at returns.
func (c *taintCtx) transfer(b *Block, in taintFact, final bool) taintFact {
	fact := in
	mutate := cow(&fact)
	for _, node := range b.Nodes {
		if final {
			c.rules.sinks(c, node, fact)
			if ret, ok := node.(*ast.ReturnStmt); ok && c.pass == nil {
				c.collectReturn(ret, fact)
			}
		}
		switch n := node.(type) {
		case *ast.AssignStmt:
			c.assign(n.Lhs, n.Rhs, n.Tok, fact, mutate)
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Values) == 0 {
						continue
					}
					lhs := make([]ast.Expr, len(vs.Names))
					for i, id := range vs.Names {
						lhs[i] = id
					}
					c.assign(lhs, vs.Values, token.DEFINE, fact, mutate)
				}
			}
		}
	}
	return fact
}

// collectReturn folds one return statement into the result specs.
func (c *taintCtx) collectReturn(ret *ast.ReturnStmt, fact taintFact) {
	n := c.results.Len()
	if n == 0 {
		return
	}
	if c.resultSpecs == nil {
		c.resultSpecs = make([]TaintSpec, n)
	}
	vals := make([]taintVal, n)
	switch {
	case len(ret.Results) == n:
		for i, e := range ret.Results {
			vals[i] = c.exprTaint(e, fact)
		}
	case len(ret.Results) == 0:
		// Bare return: named results carry their current fact.
		for i := range vals {
			vals[i] = fact[c.results.At(i)]
		}
	case len(ret.Results) == 1:
		// return f() forwarding a multi-value call.
		if call, ok := ret.Results[0].(*ast.CallExpr); ok {
			copy(vals, c.callResults(call, fact))
		}
	}
	for i, tv := range vals {
		spec := &c.resultSpecs[i]
		if tv.tainted() {
			spec.Always = true
			if !spec.SrcPos.IsValid() || (tv.src.IsValid() && tv.src < spec.SrcPos) {
				spec.SrcPos = tv.src
			}
		}
		spec.Params |= tv.mask &^ taintedBit
	}
}

// callResults is the per-result taint of a call: a source taints its
// first result, a summarized callee instantiates its specs against the
// argument taints at this site, anything else is clean (nil).
func (c *taintCtx) callResults(call *ast.CallExpr, fact taintFact) []taintVal {
	if c.isSource(call) {
		return []taintVal{{mask: taintedBit, src: call.Pos()}}
	}
	if !c.rules.ints {
		return nil
	}
	callee := c.prog.resolveCall(c.pkg, c.pf, call)
	if callee == nil || callee.Summary == nil {
		return nil
	}
	out := make([]taintVal, len(callee.Summary.Results))
	for i, spec := range callee.Summary.Results {
		// Unconditional taint keeps the callee's decode site as source;
		// parameter-conditional taint substitutes the argument taints.
		if spec.Always {
			out[i] = taintVal{mask: taintedBit, src: spec.SrcPos}
		}
		for p := 0; p < 62 && p < len(call.Args); p++ {
			if spec.Params&(uint64(1)<<uint(p)) != 0 {
				out[i] = joinVal(out[i], c.exprTaint(call.Args[p], fact))
			}
		}
	}
	return out
}

// assign applies strong updates: a tracked variable assigned from a
// tainted expression becomes tainted, one assigned from a clean expression
// becomes clean. A multi-value assignment from a call follows
// callResults; any other multi-value form is conservatively clean.
func (c *taintCtx) assign(lhs, rhs []ast.Expr, tok token.Token, fact taintFact, mutate func() taintFact) {
	vals := make([]taintVal, len(lhs))
	if len(rhs) == len(lhs) {
		for i, e := range rhs {
			vals[i] = c.exprTaint(e, fact)
		}
	} else if call, ok := rhs[0].(*ast.CallExpr); ok {
		copy(vals, c.callResults(call, fact))
	}
	for i, l := range lhs {
		v := identVar(c.pkg, l)
		if v == nil || (c.rules.ints && !isIntegerVar(v)) {
			continue
		}
		tv := vals[i]
		if tok != token.ASSIGN && tok != token.DEFINE {
			// Compound (+=, <<=, ...): taint accumulates.
			tv = joinVal(tv, fact[v])
		}
		if !tv.zero() {
			mutate()[v] = tv
		} else if _, had := fact[v]; had {
			delete(mutate(), v)
		}
	}
}

// exprTaint reports the taint an expression's value may carry under the
// current fact. Taint flows through parens, unary operators (&x), slicing,
// composite literals embedding a tainted value and, for integers,
// arithmetic, conversions, min/max and summarized callees.
func (c *taintCtx) exprTaint(e ast.Expr, fact taintFact) taintVal {
	switch e := e.(type) {
	case *ast.Ident:
		if v, ok := c.pkg.Info.Uses[e].(*types.Var); ok {
			return fact[v]
		}
	case *ast.ParenExpr:
		return c.exprTaint(e.X, fact)
	case *ast.UnaryExpr:
		return c.exprTaint(e.X, fact)
	case *ast.SliceExpr:
		return c.exprTaint(e.X, fact)
	case *ast.CompositeLit:
		var out taintVal
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			out = joinVal(out, c.exprTaint(elt, fact))
		}
		return out
	case *ast.BinaryExpr:
		switch e.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			return taintVal{} // booleans
		}
		return joinVal(c.exprTaint(e.X, fact), c.exprTaint(e.Y, fact))
	case *ast.CallExpr:
		// Only integers flow through conversions and builtins.
		if !c.rules.ints || c.isSource(e) {
			return c.firstResult(e, fact)
		}
		// Conversion: T(x) is as tainted as x.
		if tv, ok := c.pkg.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return c.exprTaint(e.Args[0], fact)
		}
		// min(x, smallConst) clamps; min/max of all-tainted stays tainted;
		// every other builtin (len, cap, ...) yields a clean value.
		if id, ok := e.Fun.(*ast.Ident); ok {
			if bi, ok := c.pkg.Info.Uses[id].(*types.Builtin); ok {
				out := taintVal{}
				for _, a := range e.Args {
					av := c.exprTaint(a, fact)
					switch {
					case bi.Name() == "min" && av.zero() && smallConstOrClean(c.pkg, a):
						return taintVal{}
					case bi.Name() == "min" || bi.Name() == "max":
						out = joinVal(out, av)
					}
				}
				return out
			}
		}
		return c.firstResult(e, fact)
	}
	// Selectors, index expressions, literals: clean.
	return taintVal{}
}

// firstResult is the taint of a call's first result.
func (c *taintCtx) firstResult(call *ast.CallExpr, fact taintFact) taintVal {
	if vals := c.callResults(call, fact); len(vals) > 0 {
		return vals[0]
	}
	return taintVal{}
}

// smallConstOrClean reports whether e is an untainted bound that genuinely
// clamps: any non-constant clean expression, or a constant <= taintBoundMax.
func smallConstOrClean(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok {
		return false
	}
	if tv.Value == nil {
		return true
	}
	v, exact := constant.Int64Val(constant.ToInt(tv.Value))
	return exact && v >= 0 && v <= taintBoundMax
}

// refine sanitizes variables along branch edges whose condition proves an
// upper bound: on the true edge of `n <= limit` (or the false edge of
// `n > limit`), n is no longer attacker-sized, provided limit is itself
// untainted and not an absurd constant.
func (c *taintCtx) refine(e Edge, out taintFact) taintFact {
	if e.Cond == nil {
		return out
	}
	fact := out
	mutate := cow(&fact)
	c.refineCond(e.Cond, e.Negated, out, func(id *ast.Ident) {
		if v, ok := c.pkg.Info.Uses[id].(*types.Var); ok {
			if _, had := fact[v]; had {
				delete(mutate(), v)
			}
		}
	})
	return fact
}

// refineCond walks a branch condition, applying sanitization for each
// conjunct that holds on this edge. negated means the edge is taken when
// the condition is false.
func (c *taintCtx) refineCond(cond ast.Expr, negated bool, fact taintFact, sanitize func(*ast.Ident)) {
	switch cond := cond.(type) {
	case *ast.ParenExpr:
		c.refineCond(cond.X, negated, fact, sanitize)
		return
	case *ast.UnaryExpr:
		if cond.Op == token.NOT {
			c.refineCond(cond.X, !negated, fact, sanitize)
		}
		return
	case *ast.BinaryExpr:
		switch cond.Op {
		case token.LAND:
			if !negated {
				// Both conjuncts hold on the true edge.
				c.refineCond(cond.X, false, fact, sanitize)
				c.refineCond(cond.Y, false, fact, sanitize)
			}
			return
		case token.LOR:
			if negated {
				// Both disjuncts are false on the false edge.
				c.refineCond(cond.X, true, fact, sanitize)
				c.refineCond(cond.Y, true, fact, sanitize)
			}
			return
		}
		op := cond.Op
		if negated {
			switch op {
			case token.LSS:
				op = token.GEQ
			case token.LEQ:
				op = token.GTR
			case token.GTR:
				op = token.LEQ
			case token.GEQ:
				op = token.LSS
			case token.EQL:
				op = token.NEQ
			case token.NEQ:
				op = token.EQL
			}
		}
		// v <op> bound with an upper bound proven on this edge.
		if id, ok := identOf(cond.X); ok {
			switch op {
			case token.LSS, token.LEQ, token.EQL:
				if c.exprTaint(cond.Y, fact).zero() && smallConstOrClean(c.pkg, cond.Y) {
					sanitize(id)
				}
			}
		}
		if id, ok := identOf(cond.Y); ok {
			switch op {
			case token.GTR, token.GEQ, token.EQL:
				if c.exprTaint(cond.X, fact).zero() && smallConstOrClean(c.pkg, cond.X) {
					sanitize(id)
				}
			}
		}
	}
}

func identOf(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.CallExpr:
			// Look through conversions: int(n) > bound sanitizes n.
			if len(x.Args) == 1 {
				e = x.Args[0]
				continue
			}
			return nil, false
		case *ast.Ident:
			return x, true
		default:
			return nil, false
		}
	}
}

// isWireSource recognizes the decoder calls that introduce wire taint.
func isWireSource(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/binary" {
		return false
	}
	switch fn.Name() {
	case "ReadUvarint", "ReadVarint":
		return true
	case "Uint16", "Uint32", "Uint64":
		sig, ok := fn.Type().(*types.Signature)
		return ok && sig.Recv() != nil
	}
	return false
}

// checkSinks is the wire rule set's sinks: it reports (or records) taint
// reaching allocation-size positions in any call under node —
// make/slices.Grow/io.CopyN directly, or a call whose callee summary says
// the parameter reaches such a sink (skipping nested function literals,
// which get their own pass).
func (c *taintCtx) checkSinks(node ast.Node, fact taintFact) {
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if bi, ok := c.pkg.Info.Uses[fun].(*types.Builtin); ok {
				if bi.Name() == "make" {
					for _, arg := range call.Args[1:] {
						c.sinkHit(arg, fact, "make size", arg.Pos(), nil)
					}
				}
				return true
			}
		case *ast.SelectorExpr:
			if fn, ok := c.pkg.Info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil {
				switch {
				case fn.Pkg().Path() == "slices" && fn.Name() == "Grow" && len(call.Args) >= 2:
					c.sinkHit(call.Args[1], fact, "slices.Grow size", call.Args[1].Pos(), nil)
					return true
				case fn.Pkg().Path() == "io" && fn.Name() == "CopyN" && len(call.Args) >= 3:
					c.sinkHit(call.Args[2], fact, "io.CopyN limit", call.Args[2].Pos(), nil)
					return true
				}
			}
		}
		// Arguments feeding a callee whose summary reaches a sink.
		if callee := c.prog.resolveCall(c.pkg, c.pf, call); callee != nil && callee.Summary != nil {
			for p, sink := range callee.Summary.SinkParams {
				if p >= len(call.Args) {
					continue
				}
				desc := sink.Desc
				if c.pass != nil {
					desc += " inside " + shortFuncName(callee)
				}
				c.sinkHit(call.Args[p], fact, desc, sink.Pos, &sink)
			}
		}
		return true
	})
}

// sinkHit handles taint arriving at one sink position: report mode flags
// wire-derived values; collect mode records parameter-derived ones in the
// summary being built.
func (c *taintCtx) sinkHit(arg ast.Expr, fact taintFact, sinkDesc string, sinkPos token.Pos, callee *SinkSite) {
	tv := c.exprTaint(arg, fact)
	if c.pass != nil {
		if !tv.tainted() {
			return
		}
		var related []Related
		if tv.src.IsValid() && tv.src != arg.Pos() {
			related = append(related, c.pass.RelatedAt(tv.src, "wire-decoded here"))
		}
		if callee != nil && callee.Pos.IsValid() {
			related = append(related, c.pass.RelatedAt(callee.Pos, "allocation sink inside the callee"))
		}
		c.pass.ReportRelated(arg.Pos(), related,
			"wire-decoded integer %s flows into %s without an upper-bound check; a hostile header sizes this allocation (clamp it, or annotate with //%s wiretaint)",
			types.ExprString(arg), sinkDesc, AllowPrefix)
		return
	}
	params := tv.mask &^ taintedBit
	for p := 0; p < 62 && params != 0; p++ {
		if params&(uint64(1)<<uint(p)) == 0 {
			continue
		}
		if c.sinkParams == nil {
			c.sinkParams = map[int]SinkSite{}
		}
		site := SinkSite{Pos: sinkPos, Desc: sinkDesc}
		if cur, ok := c.sinkParams[p]; !ok || site.Pos < cur.Pos {
			c.sinkParams[p] = site
		}
	}
}

// isIntegerVar reports whether v holds an integer (signed or unsigned),
// the only type the wire rule set tracks.
func isIntegerVar(v *types.Var) bool {
	b, ok := v.Type().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
