package analysis

import (
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"strings"
	"testing"
)

// buildTestCFG parses a function body and builds its CFG.
func buildTestCFG(t *testing.T, body string) (*CFG, *token.FileSet) {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cfg_test.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := f.Decls[0].(*ast.FuncDecl)
	return BuildCFG(fd.Body), fset
}

// reachable returns the blocks reachable from Entry in index order.
func reachable(g *CFG) []*Block {
	seen := make([]bool, len(g.Blocks))
	var walk func(b *Block)
	walk = func(b *Block) {
		if seen[b.Index] {
			return
		}
		seen[b.Index] = true
		for _, to := range b.Succs {
			walk(to)
		}
	}
	walk(g.Entry)
	var out []*Block
	for _, b := range g.Blocks {
		if seen[b.Index] {
			out = append(out, b)
		}
	}
	return out
}

// nodeText renders a node compactly for assertions.
func nodeText(fset *token.FileSet, n ast.Node) string {
	var sb strings.Builder
	_ = printer.Fprint(&sb, fset, n)
	return strings.Join(strings.Fields(sb.String()), " ")
}

// blockWith returns the reachable block containing a node whose rendering
// equals text.
func blockWith(t *testing.T, g *CFG, fset *token.FileSet, text string) *Block {
	t.Helper()
	for _, b := range reachable(g) {
		for _, n := range b.Nodes {
			if nodeText(fset, n) == text {
				return b
			}
		}
	}
	t.Fatalf("no reachable block contains %q", text)
	return nil
}

// pathExists reports whether to is reachable from from.
func pathExists(g *CFG, from, to *Block) bool {
	seen := make([]bool, len(g.Blocks))
	var walk func(b *Block) bool
	walk = func(b *Block) bool {
		if b == to {
			return true
		}
		if seen[b.Index] {
			return false
		}
		seen[b.Index] = true
		for _, to := range b.Succs {
			if walk(to) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

func TestCFGIfElseJoins(t *testing.T) {
	g, fset := buildTestCFG(t, `
	a := 1
	if a > 0 {
		a = 2
	} else {
		a = 3
	}
	a = 4`)
	cond := blockWith(t, g, fset, "a > 0")
	join := blockWith(t, g, fset, "a = 4")
	then := blockWith(t, g, fset, "a = 2")
	els := blockWith(t, g, fset, "a = 3")
	if len(cond.Succs) != 2 || cond.Succs[0] != then || cond.Succs[1] != els {
		t.Fatalf("condition block must branch to the then and else blocks, in that order")
	}
	if !pathExists(g, then, join) || !pathExists(g, els, join) {
		t.Fatalf("both branches must reach the join block")
	}
	if !pathExists(g, join, g.Exit) {
		t.Fatalf("join block must reach Exit")
	}
}

func TestCFGForLoopBackEdge(t *testing.T) {
	g, fset := buildTestCFG(t, `
	s := 0
	for i := 0; i < 10; i++ {
		s += i
	}
	s = -1`)
	body := blockWith(t, g, fset, "s += i")
	head := blockWith(t, g, fset, "i < 10")
	if body == head {
		t.Fatalf("loop condition must evaluate in its own head block, outside the body")
	}
	// Back edge: body -> post (i++) -> head.
	post := blockWith(t, g, fset, "i++")
	if !pathExists(g, body, post) || !pathExists(g, post, head) {
		t.Fatalf("loop body must reach the head again through the post statement")
	}
	out := blockWith(t, g, fset, "s = -1")
	if !pathExists(g, head, out) {
		t.Fatalf("loop head must reach the after-loop block")
	}
}

func TestCFGLabelledBreak(t *testing.T) {
	g, fset := buildTestCFG(t, `
	n := 0
outer:
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if j == i {
				break outer
			}
			n++
		}
	}
	n = -1`)
	brkCond := blockWith(t, g, fset, "j == i")
	after := blockWith(t, g, fset, "n = -1")
	// The labelled break must exit both loops: the if's then-branch, its
	// first successor, leads to the after-loop block without passing the
	// inner-loop increment again.
	if len(brkCond.Succs) != 2 {
		t.Fatalf("break condition has %d successors, want 2", len(brkCond.Succs))
	}
	brk := brkCond.Succs[0]
	if !pathExists(g, brk, after) {
		t.Fatalf("labelled break must reach the statement after the outer loop")
	}
	inner := blockWith(t, g, fset, "n++")
	if pathExists(g, brk, inner) {
		t.Fatalf("labelled break edge must not re-enter the loops")
	}
}

func TestCFGDeferChainLIFO(t *testing.T) {
	g, fset := buildTestCFG(t, `
	defer first()
	defer second()
	work()`)
	// The in-line DeferStmt reads "defer first()"; the replayed call alone
	// is "first()", so these find the synthetic exit chain.
	second := blockWith(t, g, fset, "second()")
	first := blockWith(t, g, fset, "first()")
	work := blockWith(t, g, fset, "work()")
	if work == second || work == first {
		t.Fatalf("in-line statements must not share a block with the replayed defers")
	}
	// LIFO: the last-registered defer replays first on the way to Exit.
	if !pathExists(g, work, second) || !pathExists(g, second, first) || pathExists(g, first, second) {
		t.Fatalf("deferred chain must run second() before first(), after the body")
	}
	if !pathExists(g, first, g.Exit) {
		t.Fatalf("deferred chain must end at Exit")
	}
}

func TestCFGSelectHead(t *testing.T) {
	g, fset := buildTestCFG(t, `
	ch := make(chan int)
	select {
	case v := <-ch:
		use(v)
	case ch <- 1:
		done()
	}`)
	var head *Block
	for _, b := range reachable(g) {
		if b.Select != nil {
			head = b
		}
	}
	if head == nil {
		t.Fatalf("no reachable block carries the select marker")
	}
	if len(head.Succs) != 2 {
		t.Fatalf("select head has %d successors, want 2 (one per case)", len(head.Succs))
	}
	// Both comm statements are registered so analyzers report the select
	// head, not the individual channel ops.
	comms := 0
	for _, b := range reachable(g) {
		for _, n := range b.Nodes {
			if g.IsSelectComm(n) {
				comms++
			}
		}
	}
	if comms != 2 {
		t.Fatalf("found %d registered comm statements, want 2", comms)
	}
	use := blockWith(t, g, fset, "use(v)")
	if !pathExists(g, head, use) {
		t.Fatalf("select head must reach its case bodies")
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	g, fset := buildTestCFG(t, `
	switch x() {
	case 1:
		one()
		fallthrough
	case 2:
		two()
	default:
		other()
	}
	after()`)
	one := blockWith(t, g, fset, "one()")
	two := blockWith(t, g, fset, "two()")
	other := blockWith(t, g, fset, "other()")
	after := blockWith(t, g, fset, "after()")
	if !pathExists(g, one, two) {
		t.Fatalf("fallthrough must connect case 1 to case 2")
	}
	for _, b := range []*Block{two, other} {
		if !pathExists(g, b, after) {
			t.Fatalf("every case must reach the statement after the switch")
		}
	}
	if pathExists(g, two, one) {
		t.Fatalf("cases must not loop back")
	}
}

func TestCFGRangeHead(t *testing.T) {
	g, fset := buildTestCFG(t, `
	for _, v := range items {
		use(v)
	}
	after()`)
	var head *Block
	for _, b := range reachable(g) {
		if b.Range != nil {
			head = b
		}
	}
	if head == nil {
		t.Fatalf("no reachable block carries the range marker")
	}
	body := blockWith(t, g, fset, "use(v)")
	after := blockWith(t, g, fset, "after()")
	if !pathExists(g, head, body) || !pathExists(g, body, head) {
		t.Fatalf("range head and body must form a cycle")
	}
	if !pathExists(g, head, after) {
		t.Fatalf("range head must reach the after-loop block")
	}
}

// TestForwardFixpointGenKill exercises the engine end to end with a tiny
// must-analysis: "x is definitely assigned", joined by intersection. The
// if-arm assigns, the else arm does not, so after the join the fact must
// be dropped; inside the loop the fact must stabilize without looping
// forever.
func TestForwardFixpointGenKill(t *testing.T) {
	g, fset := buildTestCFG(t, `
	if c {
		gen()
	} else {
		skip()
	}
	after()
	for i := 0; i < 3; i++ {
		gen()
	}
	end()`)
	type fact map[string]bool
	an := FlowAnalysis[fact]{
		Entry: func() fact { return fact{} },
		Transfer: func(b *Block, in fact) fact {
			out := in
			for _, n := range b.Nodes {
				if nodeText(fset, n) == "gen()" {
					cp := fact{}
					for k := range out {
						cp[k] = true
					}
					cp["x"] = true
					out = cp
				}
			}
			return out
		},
		Join: func(a, b fact) fact {
			out := fact{}
			for k := range a {
				if b[k] {
					out[k] = true
				}
			}
			return out
		},
		Equal: func(a, b fact) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
	}
	entry := ForwardFixpoint(g, an)
	after := blockWith(t, g, fset, "after()")
	if entry[after]["x"] {
		t.Fatalf("must-analysis: x cannot be definitely assigned after an if/else where only one arm assigns")
	}
	end := blockWith(t, g, fset, "end()")
	if got, ok := entry[end]; !ok {
		t.Fatalf("end block unreached by fixpoint")
	} else if got["x"] {
		t.Fatalf("must-analysis: the loop may run zero times, so x is not definitely assigned at end()")
	}
}
