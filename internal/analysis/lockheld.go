package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockheldScope lists the concurrent serving-plane packages whose lock
// discipline the analyzer proves: a mutex held across a blocking operation
// (conn I/O, INP frame calls, channel ops, singleflight joins, timed
// waits) turns one stalled peer into a pile-up behind the lock — the
// deadlock class the -race job cannot see because nothing races.
var lockheldScope = map[string]bool{
	"fractal/internal/client":    true,
	"fractal/internal/proxy":     true,
	"fractal/internal/cdn":       true,
	"fractal/internal/appserver": true,
	"fractal/internal/p2p":       true,
}

// LockheldAnalyzer runs a must-hold dataflow over each function's CFG: the
// fact is the set of mutexes provably held on every path to a program
// point. It reports (a) a blocking operation executed while any lock is
// held, (b) re-acquiring a lock already held (self-deadlock), and (c)
// inconsistent acquisition order between two known locks across the
// package (AB in one function, BA in another).
var LockheldAnalyzer = &Analyzer{
	Name: "lockheld",
	Doc:  "flag mutexes held across blocking ops, self-deadlocks, and lock-order inversions",
	Run:  runLockheld,
}

// lockInfo describes one held lock.
type lockInfo struct {
	pos     token.Pos
	typeKey string // "pkg.Type.field" identity for cross-function ordering
}

// lockFact is the must-held set, keyed by the rendered lock expression
// ("s.mu"). Must-analysis: the join is set intersection.
type lockFact map[string]lockInfo

func lockJoin(a, b lockFact) lockFact {
	out := lockFact{}
	for k, v := range a {
		if _, ok := b[k]; ok {
			out[k] = v
		}
	}
	return out
}

func lockEqual(a, b lockFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// orderSite records one "second acquired while first held" observation for
// the package-wide lock-order check.
type orderSite struct {
	first, second string // type-level lock keys
	pos           token.Pos
}

func runLockheld(pass *Pass) {
	if !lockheldScope[pass.Pkg.Path] {
		return
	}
	var orders []orderSite
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// The enclosing ProgFunc supplies the locally-evident bindings
			// for interprocedural call resolution; its binding maps cover
			// nested literals too (localBindings walks the whole decl body).
			var pf *ProgFunc
			if pass.Prog != nil {
				if fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
					pf = pass.Prog.FuncOf(fn)
				}
			}
			for _, g := range funcCFGs(fd.Body) {
				orders = append(orders, lockheldFunc(pass, g, pf)...)
			}
		}
	}
	reportLockOrders(pass, orders)
}

// lockheldFunc runs the fixpoint over one function (or function literal)
// and replays each reached block once to report, returning the lock-order
// observations for the package-wide pass.
func lockheldFunc(pass *Pass, g *CFG, pf *ProgFunc) []orderSite {
	an := FlowAnalysis[lockFact]{
		Entry:    func() lockFact { return lockFact{} },
		Transfer: func(b *Block, in lockFact) lockFact { return lockTransfer(pass, g, b, in, nil, nil, pf) },
		Join:     lockJoin,
		Equal:    lockEqual,
	}
	entry := ForwardFixpoint(g, an)
	var orders []orderSite
	for _, b := range g.Blocks {
		in, reached := entry[b]
		if !reached {
			continue
		}
		lockTransfer(pass, g, b, in, pass, &orders, pf)
	}
	return orders
}

// lockTransfer pushes the held-set through one block. With rep non-nil it
// also reports findings and records lock-order observations — the replay
// pass after the fixpoint converged.
func lockTransfer(pass *Pass, g *CFG, b *Block, in lockFact, rep *Pass, orders *[]orderSite, pf *ProgFunc) lockFact {
	held := in
	cloned := false
	mutate := func() lockFact {
		if !cloned {
			c := make(lockFact, len(held))
			for k, v := range held {
				c[k] = v
			}
			held, cloned = c, true
		}
		return held
	}

	if rep != nil && len(held) > 0 {
		if b.Select != nil && !selectHasDefault(b.Select) && len(b.Select.Body.List) > 0 {
			rep.Reportf(b.Select.Pos(), "select with no default blocks while %s is held; release the lock first", heldNames(held))
		}
		if b.Range != nil && isChannelType(pass, b.Range.X) {
			rep.Reportf(b.Range.Pos(), "ranging over a channel blocks each iteration while %s is held; release the lock first", heldNames(held))
		}
	}

	for _, node := range b.Nodes {
		ast.Inspect(node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // analyzed as its own function
			case *ast.DeferStmt:
				// Registration only; the call replays in the exit chain.
				return false
			case *ast.GoStmt:
				// Runs on another goroutine with its own CFG.
				return false
			case *ast.CallExpr:
				if key, tk, op, ok := lockOpOf(pass, n); ok {
					switch op {
					case "Lock", "RLock":
						if rep != nil {
							if prev, dup := held[key]; dup {
								rep.Reportf(n.Pos(), "%s of %s while already held (acquired at %s): self-deadlock", op, key, pass.Fset.Position(prev.pos))
							}
							for _, h := range held {
								if h.typeKey != "" && tk != "" && h.typeKey != tk {
									*orders = append(*orders, orderSite{first: h.typeKey, second: tk, pos: n.Pos()})
								}
							}
						}
						mutate()[key] = lockInfo{pos: n.Pos(), typeKey: tk}
					case "Unlock", "RUnlock":
						delete(mutate(), key)
					}
					return true
				}
				if rep != nil && len(held) > 0 {
					if desc, ok := blockingCall(pass, n); ok {
						rep.Reportf(n.Pos(), "%s while %s is held; a stalled peer parks every caller behind the lock (release it, or annotate a deliberate serialization point with //%s lockheld)", desc, heldNames(held), AllowPrefix)
					} else if callee := pass.Prog.resolveCall(pass.Pkg, pf, n); callee != nil && callee.Summary != nil && callee.Summary.Blocks {
						// Interprocedural: the callee is not itself a blocking
						// primitive, but its summary says some operation it
						// (transitively) performs can block indefinitely.
						cs := callee.Summary
						related := []Related{
							rep.RelatedAt(heldAcquisition(held), "lock acquired here"),
							rep.RelatedAt(cs.LeafPos, "blocking operation inside the callee: "+cs.LeafDesc),
						}
						rep.ReportRelated(n.Pos(), related, "call to %s (may block: %s) while %s is held; a stalled peer parks every caller behind the lock (release it, or annotate a deliberate serialization point with //%s lockheld)",
							shortFuncName(callee), cs.LeafDesc, heldNames(held), AllowPrefix)
					}
				}
			case *ast.SendStmt:
				if rep != nil && len(held) > 0 && !g.IsSelectComm(n) {
					rep.Reportf(n.Pos(), "channel send while %s is held; release the lock first", heldNames(held))
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && rep != nil && len(held) > 0 && !underSelectComm(g, b, n) {
					rep.Reportf(n.Pos(), "channel receive while %s is held; release the lock first", heldNames(held))
				}
			}
			return true
		})
	}
	return held
}

// underSelectComm reports whether the receive expression belongs to a
// select communication clause in this block (reported at the select head
// instead).
func underSelectComm(g *CFG, b *Block, recv *ast.UnaryExpr) bool {
	for _, node := range b.Nodes {
		if !g.IsSelectComm(node) {
			continue
		}
		found := false
		ast.Inspect(node, func(n ast.Node) bool {
			if n == ast.Node(recv) {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// heldAcquisition returns the acquisition site of the first held lock in
// name order — the deterministic anchor for related-location reporting.
func heldAcquisition(held lockFact) token.Pos {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return token.NoPos
	}
	return held[keys[0]].pos
}

// heldNames renders the held set deterministically for messages.
func heldNames(held lockFact) string {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// lockOpOf recognizes (R)Lock/(R)Unlock calls on sync.Mutex/sync.RWMutex
// values, returning the rendered lock expression, its type-level identity,
// and the operation name.
func lockOpOf(pass *Pass, call *ast.CallExpr) (key, typeKey, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", "", false
	}
	fn, isFn := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return "", "", "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", "", false
	}
	switch named(sig.Recv().Type()) {
	case "sync.Mutex", "sync.RWMutex":
	default:
		return "", "", "", false
	}
	return types.ExprString(sel.X), lockTypeKey(pass, sel.X), name, true
}

// lockTypeKey derives a cross-function identity for a lock: the owning
// named type plus field name for struct-field locks ("core.cacheShard.mu"),
// the package-qualified name for package-level locks, "" when the lock is
// a local variable (no meaningful global order).
func lockTypeKey(pass *Pass, lockExpr ast.Expr) string {
	switch x := lockExpr.(type) {
	case *ast.SelectorExpr:
		if s, ok := pass.Pkg.Info.Selections[x]; ok {
			if owner := named(s.Recv()); owner != "" {
				return owner + "." + x.Sel.Name
			}
		}
	case *ast.Ident:
		if v, ok := pass.Pkg.Info.Uses[x].(*types.Var); ok && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
		}
	}
	return ""
}

// blockingCall recognizes calls that can block indefinitely on a peer or
// another goroutine: conn Read/Write, INP framing and Conn exchanges,
// singleflight joins, sync waits, timed sleeps, and dials.
func blockingCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if (sel.Sel.Name == "Read" || sel.Sel.Name == "Write") && isConnMethod(pass, sel) {
			return "conn " + sel.Sel.Name, true
		}
	}
	fn := calleeFunc(pass, call)
	if fn == nil {
		return "", false
	}
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		switch recv := named(sig.Recv().Type()); {
		case recv == "fractal/internal/inp.Conn" && inpConnExchanges[fn.Name()]:
			return "inp.Conn." + fn.Name() + " (network round trip)", true
		case recv == "fractal/internal/syncx.Group" && fn.Name() == "Do":
			return "syncx.Group.Do (may join an in-flight call)", true
		case recv == "sync.WaitGroup" && fn.Name() == "Wait":
			return "sync.WaitGroup.Wait", true
		case recv == "sync.Cond" && fn.Name() == "Wait":
			return "sync.Cond.Wait", true
		case recv == "net.Dialer" && strings.HasPrefix(fn.Name(), "Dial"):
			return "net.Dialer." + fn.Name(), true
		}
		return "", false
	}
	switch {
	case pkgPath == "fractal/internal/inp" && fn.Name() == deadlineFrameFn:
		return "inp." + fn.Name() + " frame call", true
	case pkgPath == "time" && fn.Name() == "Sleep":
		return "time.Sleep", true
	case pkgPath == "net" && strings.HasPrefix(fn.Name(), "Dial"):
		return "net." + fn.Name(), true
	}
	return "", false
}

// inpConnExchanges are the inp.Conn methods that perform (or commit the
// caller to) network I/O. Queue only stages bytes, but a queued frame
// obligates a Flush on the same conn, so holding a lock across either
// half of the batched write path is the same discipline violation as
// holding it across Send.
var inpConnExchanges = map[string]bool{
	"Send":      true,
	"Recv":      true,
	"RecvInto":  true,
	"Call":      true,
	"SendError": true,
	"Queue":     true,
	"Flush":     true,
}

// calleeFunc resolves a call's target to its types.Func, for both
// qualified (pkg.F, recv.M) and unqualified (F) call forms.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if fn, ok := pass.Pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := pass.Pkg.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isChannelType reports whether the expression's static type is a channel.
func isChannelType(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// reportLockOrders flags pairs of type-level locks acquired in both orders
// somewhere in the package: whichever order is correct, the other is a
// potential ABBA deadlock.
func reportLockOrders(pass *Pass, orders []orderSite) {
	type pair struct{ a, b string }
	sites := map[pair][]orderSite{}
	for _, o := range orders {
		sites[pair{o.first, o.second}] = append(sites[pair{o.first, o.second}], o)
	}
	var keys []pair
	for p := range sites {
		if p.a < p.b {
			if _, inverted := sites[pair{p.b, p.a}]; inverted {
				keys = append(keys, p)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	for _, p := range keys {
		for _, dir := range []pair{p, {p.b, p.a}} {
			ss := sites[dir]
			sort.Slice(ss, func(i, j int) bool { return ss[i].pos < ss[j].pos })
			for _, s := range ss {
				other := sites[pair{dir.b, dir.a}][0]
				pass.Reportf(s.pos, "lock order inversion: %s acquired while %s is held here, but the opposite order occurs at %s",
					fmt.Sprintf("%q", dir.b), fmt.Sprintf("%q", dir.a), pass.Fset.Position(other.pos))
			}
		}
	}
}
