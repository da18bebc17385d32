package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// goleakScope lists the packages whose goroutines serve live traffic: a
// goroutine there that blocks forever on a channel nobody closes is a
// session leaked per stalled peer — the shape behind the PR 7 sessMu
// stall. Harness and simulation packages spawn plenty of goroutines too,
// but their lifetimes end with the test process.
var goleakScope = map[string]bool{
	"fractal/internal/client":          true,
	"fractal/internal/proxy":           true,
	"fractal/internal/inp":             true,
	"fractal/internal/inp/conformance": true,
}

// GoleakAnalyzer reports `go` statements whose goroutine is not tied to
// an exit signal on every path: it blocks on a channel that is never
// closed in its package, has no context/deadline case, and loops with no
// way out. The verdicts come from the summary engine's spawn-site
// analysis (summary.go); this analyzer only scopes and reports them.
var GoleakAnalyzer = &Analyzer{
	Name: "goleak",
	Doc:  "flag goroutines whose exit is not tied to a context/close/deadline signal",
	Run:  runGoleak,
}

func runGoleak(pass *Pass) {
	if !goleakScope[pass.Pkg.Path] || pass.Prog == nil {
		return
	}
	for _, pf := range pass.Prog.order {
		if pf.Pkg != pass.Pkg || pf.Summary == nil {
			continue
		}
		for _, sp := range pf.Summary.Spawns {
			if sp.Tied {
				continue
			}
			pass.ReportRelated(sp.GoPos,
				[]Related{pass.RelatedAt(sp.ObPos, "the operation with no exit signal")},
				"goroutine spawned in %s can block forever: %s has no context/close/deadline tie on this path (select on a done signal, close the channel at shutdown, or annotate with //%s goleak)",
				pf.Fn.Name(), sp.ObDesc, AllowPrefix)
		}
	}
}

// chanFacts is the per-package channel knowledge the obligation analysis
// keys off: which channel objects (locals, package variables, struct
// fields) are closed somewhere in the package, and which are visibly
// buffered at their make site.
type chanFacts struct {
	closed   map[types.Object]bool
	buffered map[types.Object]bool
}

// collectChanFacts walks every file of the package once.
func collectChanFacts(pkg *Package) *chanFacts {
	facts := &chanFacts{closed: map[types.Object]bool{}, buffered: map[types.Object]bool{}}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) == 1 {
					if bi, ok := pkg.Info.Uses[id].(*types.Builtin); ok && bi.Name() == "close" {
						if obj := chanObj(pkg, n.Args[0]); obj != nil {
							facts.closed[obj] = true
						}
					}
				}
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i := range n.Rhs {
					if isBufferedMakeChan(pkg, n.Rhs[i]) {
						if obj := chanObj(pkg, n.Lhs[i]); obj != nil {
							facts.buffered[obj] = true
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) && isBufferedMakeChan(pkg, n.Values[i]) {
						if obj := pkg.Info.Defs[name]; obj != nil {
							facts.buffered[obj] = true
						}
					}
				}
			case *ast.KeyValueExpr:
				// Server{sem: make(chan struct{}, n)} records the field.
				if isBufferedMakeChan(pkg, n.Value) {
					if id, ok := n.Key.(*ast.Ident); ok {
						if obj := pkg.Info.Uses[id]; obj != nil {
							facts.buffered[obj] = true
						}
					}
				}
			}
			return true
		})
	}
	return facts
}

// isBufferedMakeChan reports whether e is make(chan T, n) with a capacity
// that is not the constant 0: the sends the capacity was sized for do not
// block.
func isBufferedMakeChan(pkg *Package, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	bi, ok := pkg.Info.Uses[id].(*types.Builtin)
	if !ok || bi.Name() != "make" {
		return false
	}
	if tv, ok := pkg.Info.Types[call.Args[0]]; !ok || tv.Type == nil {
		return false
	} else if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
		return false
	}
	if tv, ok := pkg.Info.Types[call.Args[1]]; ok && tv.Value != nil {
		if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact && v == 0 {
			return false
		}
	}
	return true
}

// chanObj resolves a channel expression to its package-level identity: a
// local/package variable or a struct field object (shared by every
// instance of the struct — close(s.done) anywhere ties s.done
// everywhere, which is exactly the close-at-shutdown contract).
func chanObj(pkg *Package, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return chanObj(pkg, e.X)
	case *ast.Ident:
		if obj := pkg.Info.Uses[e]; obj != nil {
			return obj
		}
		return pkg.Info.Defs[e]
	case *ast.SelectorExpr:
		return pkg.Info.Uses[e.Sel]
	}
	return nil
}

// tiedChanExpr reports whether the channel expression is an exit signal
// or otherwise cannot park the goroutine forever: a context Done
// channel, a timer/ticker channel, a channel closed somewhere in the
// package, a visibly buffered channel (bounded handoff), or a channel
// whose name declares it a shutdown signal.
func tiedChanExpr(pkg *Package, facts *chanFacts, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return tiedChanExpr(pkg, facts, e.X)
	case *ast.CallExpr:
		switch fun := e.Fun.(type) {
		case *ast.SelectorExpr:
			if fun.Sel.Name == "Done" {
				return true // ctx.Done() and anything shaped like it
			}
			if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" {
				switch fn.Name() {
				case "After", "Tick":
					return true
				}
			}
		}
		return false
	case *ast.SelectorExpr:
		// timer.C / ticker.C fire on a deadline.
		if e.Sel.Name == "C" {
			if tv, ok := pkg.Info.Types[e.X]; ok && tv.Type != nil {
				switch named(tv.Type) {
				case "time.Timer", "time.Ticker":
					return true
				}
			}
		}
	}
	obj := chanObj(pkg, e)
	if obj == nil {
		return false
	}
	if facts.closed[obj] || facts.buffered[obj] {
		return true
	}
	return doneLikeName(obj.Name())
}

// doneLikeName matches the shutdown-signal naming conventions.
func doneLikeName(name string) bool {
	l := strings.ToLower(name)
	for _, m := range []string{"done", "stop", "quit", "close", "exit", "cancel", "shutdown"} {
		if strings.Contains(l, m) {
			return true
		}
	}
	return false
}
