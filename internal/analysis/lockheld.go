package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockheldAnalyzer runs a must-hold dataflow over each function's CFG: the
// fact is the set of mutexes provably held on every path to a program
// point. It reports (a) a blocking operation executed while any lock is
// held, (b) re-acquiring a lock already held (self-deadlock), and (c)
// inconsistent acquisition order between two known locks across the
// package (AB in one function, BA in another).
var LockheldAnalyzer = &Analyzer{
	Name: "lockheld",
	Run:  runLockheld,
	// The concurrent serving-plane packages: a mutex held across a blocking
	// operation there turns one stalled peer into a pile-up behind the
	// lock — the deadlock class the -race job cannot see because nothing
	// races.
	scope: []string{"fractal/internal/client", "fractal/internal/proxy", "fractal/internal/cdn",
		"fractal/internal/appserver", "fractal/internal/p2p"},
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
	var orders []orderSite
	forEachFunc(pass, func(pf *ProgFunc, g *CFG) {
		an := FlowAnalysis[lockFact]{
			Entry:    func() lockFact { return lockFact{} },
			Transfer: func(b *Block, in lockFact) lockFact { return lockTransfer(pass, g, b, in, pf, nil) },
			Join:     lockJoin,
			Equal:    lockEqual,
		}
		solve(g, an, func(b *Block, in lockFact) { lockTransfer(pass, g, b, in, pf, &orders) })
	})
	reportLockOrders(pass, orders)
}

// lockTransfer pushes the held-set through one block. With orders non-nil
// it also reports findings and records lock-order observations — the
// replay pass after the fixpoint converged.
func lockTransfer(pass *Pass, g *CFG, b *Block, in lockFact, pf *ProgFunc, orders *[]orderSite) lockFact {
	held := in
	mutate := cow(&held)
	checkBlocking := func(n ast.Node) {
		if orders == nil || len(held) == 0 {
			return
		}
		site, ok := pass.Prog.mayBlock(pass.Pkg, pf, n)
		if !ok {
			return
		}
		if _, isCall := n.(*ast.CallExpr); !isCall {
			pass.Reportf(site.pos, "%s while %s is held; release the lock first", site.desc, heldNames(held))
			return
		}
		pass.Reportf(site.pos, "%s while %s is held; a stalled peer parks every caller behind the lock (release it, or annotate a deliberate serialization point with //%s lockheld)",
			site.desc, heldNames(held), AllowPrefix)
	}
	if b.Select != nil {
		checkBlocking(b.Select)
	}
	if b.Range != nil {
		checkBlocking(b.Range)
	}
	for _, node := range b.Nodes {
		comm := g.IsSelectComm(node)
		ast.Inspect(node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
				// Literals are analyzed as their own functions, a deferred
				// call replays in the exit chain, a spawn runs elsewhere.
				return false
			case *ast.SendStmt, *ast.UnaryExpr:
				// A select case's channel operation blocks as part of the
				// select, reported at its head.
				if comm {
					return true
				}
			case *ast.CallExpr:
				if key, tk, op, ok := lockOpOf(pass, n); ok {
					switch op {
					case "Lock", "RLock":
						if orders != nil {
							if prev, dup := held[key]; dup {
								pass.Reportf(n.Pos(), "%s of %s while already held (acquired at %s): self-deadlock", op, key, pass.Fset.Position(prev.pos))
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
			}
			checkBlocking(n)
			return true
		})
	}
	return held
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
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
// named type plus field name for struct-field locks ("proxy.Proxy.mu"),
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

// blockSite is one operation that may block indefinitely: where it is,
// what it is, and the primitive it bottoms out in — itself, unless it is a
// call into a blocking in-set function.
type blockSite struct {
	pos            token.Pos
	desc, leafDesc string
}

// mayBlock is the one "may block" classifier, read by both the blocking
// summaries and lockheld's reports: a channel send or receive, a select
// with no default, a range over a channel, a blocking primitive call
// (blockingCall), or a call to an in-set function whose summary blocks.
// Callers skip what does not block at the point they look at (function
// literals, go statements, a select's own communication clauses).
func (p *Program) mayBlock(pkg *Package, pf *ProgFunc, n ast.Node) (blockSite, bool) {
	desc := ""
	switch n := n.(type) {
	case *ast.SendStmt:
		desc = "channel send"
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			desc = "channel receive"
		}
	case *ast.SelectStmt:
		if !selectHasDefault(n) && len(n.Body.List) > 0 {
			desc = "select with no default"
		}
	case *ast.RangeStmt:
		if tv, ok := pkg.Info.Types[n.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				desc = "range over channel"
			}
		}
	case *ast.CallExpr:
		if desc = blockingCall(pkg, n); desc != "" {
			break
		}
		if callee := p.resolveCall(pkg, pf, n); callee != nil && callee.Summary != nil && callee.Summary.block.desc != "" {
			cb := callee.Summary.block
			return blockSite{pos: n.Pos(), leafDesc: cb.leafDesc,
				desc: fmt.Sprintf("call to %s (may block: %s)", shortFuncName(callee), cb.leafDesc)}, true
		}
	}
	if desc == "" {
		return blockSite{}, false
	}
	return blockSite{pos: n.Pos(), desc: desc, leafDesc: desc}, true
}

// blockingCall describes a call that can block indefinitely on a peer or
// another goroutine — conn Read/Write, INP framing and Conn exchanges,
// singleflight joins, sync waits, timed sleeps, and dials — or returns "".
func blockingCall(pkg *Package, call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if (sel.Sel.Name == "Read" || sel.Sel.Name == "Write") && isConnMethod(pkg, sel) {
			return "conn " + sel.Sel.Name
		}
	}
	var fn *types.Func
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		fn, _ = pkg.Info.Uses[fun.Sel].(*types.Func)
	case *ast.Ident:
		fn, _ = pkg.Info.Uses[fun].(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
		switch recv := named(sig.Recv().Type()); {
		case recv == "fractal/internal/inp.Conn" && inpConnExchanges[fn.Name()]:
			return "inp.Conn." + fn.Name() + " (network round trip)"
		case recv == "fractal/internal/syncx.Group" && fn.Name() == "Do":
			return "syncx.Group.Do (may join an in-flight call)"
		case recv == "sync.WaitGroup" && fn.Name() == "Wait":
			return "sync.WaitGroup.Wait"
		case recv == "sync.Cond" && fn.Name() == "Wait":
			return "sync.Cond.Wait"
		case recv == "net.Dialer" && strings.HasPrefix(fn.Name(), "Dial"):
			return "net.Dialer." + fn.Name()
		}
		return ""
	}
	switch path := fn.Pkg().Path(); {
	case path == "fractal/internal/inp" && fn.Name() == frameReadFn:
		return "inp." + fn.Name() + " frame call"
	case path == "time" && fn.Name() == "Sleep":
		return "time.Sleep"
	case path == "net" && strings.HasPrefix(fn.Name(), "Dial"):
		return "net." + fn.Name()
	}
	return ""
}

// frameReadFn is the INP framing entry point that reads a whole message
// off a raw stream: as blocking as calling Read directly. (Writes have no
// such entry point: frames leave only through a FrameWriter, whose owning
// Conn is covered by inpConnExchanges.)
const frameReadFn = "ReadMessage"

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
	"CallInto":  true,
	"SendError": true,
	"Queue":     true,
	"Flush":     true,
}

// isConnMethod reports whether sel resolves to a method whose receiver's
// static type also offers SetReadDeadline — the net.Conn shape, as opposed
// to a plain io.Reader/io.Writer or an in-memory buffer. *os.File carries
// the deadline methods too but local file I/O has no stalled peer, so it
// is exempt.
func isConnMethod(pkg *Package, sel *ast.SelectorExpr) bool {
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	return named(recv) != "os.File" && hasDeadlineMethods(recv)
}

// hasDeadlineMethods reports whether t's method set (or its pointer's)
// includes SetReadDeadline — the marker of a conn that talks to a peer.
func hasDeadlineMethods(t types.Type) bool {
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(typ)
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == "SetReadDeadline" {
				return true
			}
		}
	}
	return false
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
