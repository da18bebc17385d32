package analysis

import (
	"go/ast"
	"go/token"
)

// This file builds intraprocedural control-flow graphs over Go statements
// — the substrate lockheld runs its dataflow fixpoint on. It is
// deliberately the same shape as the bytecode verifier's CFG, but for the
// host language: basic blocks of leaf statements, explicit
// branch/loop/defer edges, and enough structure (select/range markers) for
// the analyzer to stay simple.

// Block is one basic block: a maximal straight-line run of leaf statements
// and condition expressions in execution order. Compound statements are
// never stored whole — their pieces are distributed over blocks — so a
// node walk over Block.Nodes visits each leaf exactly once.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block // control transfers out of the block
	// Select is set on the head block of a select statement, so an
	// analyzer can treat the select itself as one (possibly blocking)
	// operation.
	Select *ast.SelectStmt
	// Range is set on the head block of a range loop; the ranged-over
	// expression was evaluated in a predecessor, but a channel range
	// blocks at the head on every iteration.
	Range *ast.RangeStmt
}

// CFG is the control-flow graph of one function body. Entry dominates all
// reachable blocks; every terminating path reaches Exit through the
// deferred-call chain.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	// commStmt marks the communication clauses of select statements: their
	// channel operation blocks as part of the select, not on its own, so
	// analyzers report the select head instead.
	commStmt map[ast.Node]bool
}

// IsSelectComm reports whether n is the communication statement of a
// select case (its channel operation is the select's, not a free-standing
// blocking op).
func (g *CFG) IsSelectComm(n ast.Node) bool { return g.commStmt[n] }

// cfgBuilder holds the construction state for one function body.
type cfgBuilder struct {
	cfg *CFG
	// ret collects every return and the fall-off end of the body; the
	// deferred chain is routed from it to Exit.
	ret    *Block
	defers []*ast.DeferStmt

	breakT, contT *Block
	labelBreak    map[string]*Block
	labelCont     map[string]*Block
	labelBlocks   map[string]*Block
	gotos         []pendingGoto
	// pendingLabel is the label wrapping the next loop/switch/select, so
	// labelled break/continue resolve to that construct's targets.
	pendingLabel string
	// nextCase is the fallthrough target inside a switch case body.
	nextCase *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

// BuildCFG constructs the control-flow graph of a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:         &CFG{commStmt: map[ast.Node]bool{}},
		labelBreak:  map[string]*Block{},
		labelCont:   map[string]*Block{},
		labelBlocks: map[string]*Block{},
	}
	b.cfg.Entry = b.newBlock()
	b.ret = b.newBlock()
	end := b.stmt(body, b.cfg.Entry)
	b.edge(end, b.ret)
	for _, g := range b.gotos {
		if t, ok := b.labelBlocks[g.label]; ok {
			b.edge(g.from, t)
		}
	}
	// Deferred calls replay in LIFO order on the way to Exit. Conditionally
	// registered defers are replayed unconditionally — a sound
	// over-approximation for the release-style defers the analyzers track.
	cur := b.ret
	for i := len(b.defers) - 1; i >= 0; i-- {
		d := b.newBlock()
		d.Nodes = append(d.Nodes, b.defers[i].Call)
		b.edge(cur, d)
		cur = d
	}
	b.cfg.Exit = b.newBlock()
	b.edge(cur, b.cfg.Exit)
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// takeLabel consumes the pending label for the construct being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// stmt threads statement s through the graph starting at cur and returns
// the block where control continues. Diverging statements (return, break,
// goto) return a fresh unreachable block.
func (b *cfgBuilder) stmt(s ast.Stmt, cur *Block) *Block {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			cur = b.stmt(st, cur)
		}
		return cur

	case *ast.IfStmt:
		if s.Init != nil {
			cur = b.stmt(s.Init, cur)
		}
		cur.Nodes = append(cur.Nodes, s.Cond)
		out := b.newBlock()
		then := b.newBlock()
		b.edge(cur, then)
		tend := b.stmt(s.Body, then)
		b.edge(tend, out)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cur, els)
			eend := b.stmt(s.Else, els)
			b.edge(eend, out)
		} else {
			b.edge(cur, out)
		}
		return out

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			cur = b.stmt(s.Init, cur)
		}
		head := b.newBlock()
		out := b.newBlock()
		b.edge(cur, head)
		body := b.newBlock()
		b.edge(head, body)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			b.edge(head, out)
		}
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		savedB, savedC := b.breakT, b.contT
		b.breakT, b.contT = out, post
		if label != "" {
			b.labelBreak[label], b.labelCont[label] = out, post
		}
		end := b.stmt(s.Body, body)
		b.edge(end, post)
		if s.Post != nil {
			pend := b.stmt(s.Post, post)
			b.edge(pend, head)
		}
		b.breakT, b.contT = savedB, savedC
		if label != "" {
			delete(b.labelBreak, label)
			delete(b.labelCont, label)
		}
		return out

	case *ast.RangeStmt:
		label := b.takeLabel()
		cur.Nodes = append(cur.Nodes, s.X)
		head := b.newBlock()
		head.Range = s
		out := b.newBlock()
		b.edge(cur, head)
		b.edge(head, out)
		body := b.newBlock()
		b.edge(head, body)
		savedB, savedC := b.breakT, b.contT
		b.breakT, b.contT = out, head
		if label != "" {
			b.labelBreak[label], b.labelCont[label] = out, head
		}
		end := b.stmt(s.Body, body)
		b.edge(end, head)
		b.breakT, b.contT = savedB, savedC
		if label != "" {
			delete(b.labelBreak, label)
			delete(b.labelCont, label)
		}
		return out

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			cur = b.stmt(s.Init, cur)
		}
		if s.Tag != nil {
			cur.Nodes = append(cur.Nodes, s.Tag)
		}
		return b.switchClauses(cur, label, s.Body, true)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			cur = b.stmt(s.Init, cur)
		}
		cur.Nodes = append(cur.Nodes, s.Assign)
		return b.switchClauses(cur, label, s.Body, false)

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.newBlock()
		head.Select = s
		b.edge(cur, head)
		out := b.newBlock()
		savedB := b.breakT
		b.breakT = out
		if label != "" {
			b.labelBreak[label] = out
		}
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			cb := b.newBlock()
			b.edge(head, cb)
			end := cb
			if cc.Comm != nil {
				b.cfg.commStmt[cc.Comm] = true
				end = b.stmt(cc.Comm, end)
			}
			for _, st := range cc.Body {
				end = b.stmt(st, end)
			}
			b.edge(end, out)
		}
		b.breakT = savedB
		if label != "" {
			delete(b.labelBreak, label)
		}
		// A select with no cases blocks forever: head keeps zero edges.
		return out

	case *ast.LabeledStmt:
		lb := b.newBlock()
		b.edge(cur, lb)
		b.labelBlocks[s.Label.Name] = lb
		saved := b.pendingLabel
		b.pendingLabel = s.Label.Name
		out := b.stmt(s.Stmt, lb)
		b.pendingLabel = saved
		return out

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			t := b.breakT
			if s.Label != nil {
				t = b.labelBreak[s.Label.Name]
			}
			if t != nil {
				b.edge(cur, t)
			}
		case token.CONTINUE:
			t := b.contT
			if s.Label != nil {
				t = b.labelCont[s.Label.Name]
			}
			if t != nil {
				b.edge(cur, t)
			}
		case token.GOTO:
			if t, ok := b.labelBlocks[s.Label.Name]; ok {
				b.edge(cur, t)
			} else {
				b.gotos = append(b.gotos, pendingGoto{from: cur, label: s.Label.Name})
			}
		case token.FALLTHROUGH:
			if b.nextCase != nil {
				b.edge(cur, b.nextCase)
			}
		}
		return b.newBlock() // unreachable continuation

	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, s)
		b.edge(cur, b.ret)
		return b.newBlock()

	case *ast.DeferStmt:
		// The registration point stays in line (arguments are evaluated
		// here); the call itself replays in the exit chain.
		cur.Nodes = append(cur.Nodes, s)
		b.defers = append(b.defers, s)
		return cur

	case *ast.EmptyStmt:
		return cur

	default:
		// Leaf statements: assignments, expressions, sends, declarations,
		// inc/dec, go statements.
		cur.Nodes = append(cur.Nodes, s)
		return cur
	}
}

// switchClauses builds the shared case-dispatch shape of switch and type
// switch. valueCases controls whether clause expressions are recorded as
// evaluated nodes (type-switch case lists name types, not values).
func (b *cfgBuilder) switchClauses(cur *Block, label string, body *ast.BlockStmt, valueCases bool) *Block {
	out := b.newBlock()
	var clauses []*ast.CaseClause
	for _, cl := range body.List {
		clauses = append(clauses, cl.(*ast.CaseClause))
	}
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		bodies[i] = b.newBlock()
		b.edge(cur, bodies[i])
		if cc.List == nil {
			hasDefault = true
		} else if valueCases {
			for _, e := range cc.List {
				bodies[i].Nodes = append(bodies[i].Nodes, e)
			}
		}
	}
	if !hasDefault {
		b.edge(cur, out)
	}
	savedB := b.breakT
	b.breakT = out
	if label != "" {
		b.labelBreak[label] = out
	}
	for i, cc := range clauses {
		savedNext := b.nextCase
		if i+1 < len(clauses) {
			b.nextCase = bodies[i+1]
		} else {
			b.nextCase = nil
		}
		end := bodies[i]
		for _, st := range cc.Body {
			end = b.stmt(st, end)
		}
		b.nextCase = savedNext
		b.edge(end, out)
	}
	b.breakT = savedB
	if label != "" {
		delete(b.labelBreak, label)
	}
	return out
}

// funcCFGs builds a CFG for fn's body plus one per nested function
// literal, so each function (named or anonymous) is analyzed with its own
// entry state. The FuncLit bodies are not reachable through the enclosing
// CFG's nodes-walks because analyzers skip FuncLit subtrees.
func funcCFGs(body *ast.BlockStmt) []*CFG {
	out := []*CFG{BuildCFG(body)}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			out = append(out, BuildCFG(lit.Body))
		}
		return true
	})
	return out
}
