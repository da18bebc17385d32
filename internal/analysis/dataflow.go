package analysis

import (
	"go/ast"
	"go/types"
	"maps"
)

// The dataflow half of the flow-sensitive engine, and the three pieces
// every flow analyzer (lockheld, wiretaint, hotpath) is built from: a
// per-function driver (forEachFunc), a forward worklist fixpoint with a
// replay of each reached block (solve), and a copy-on-write handle on
// map-shaped facts (cow). An analyzer supplies the lattice (Join, Equal),
// the per-block transfer function, and optionally a per-edge refinement
// (how a branch condition sharpens facts on its true/false edges).
//
// Contract: Transfer, Refine, and Join must treat their inputs as
// immutable — facts are shared between blocks, so implementations
// copy-on-write.

// FlowAnalysis defines one dataflow problem over facts of type F.
type FlowAnalysis[F any] struct {
	// Entry produces the fact at function entry.
	Entry func() F
	// Transfer pushes a fact through a block's nodes.
	Transfer func(b *Block, in F) F
	// Refine (optional) sharpens a block's out-fact along one edge, using
	// the edge's branch condition.
	Refine func(e Edge, out F) F
	// Join merges facts arriving over two edges.
	Join func(a, b F) F
	// Equal decides convergence.
	Equal func(a, b F) bool
}

// ForwardFixpoint iterates the analysis to a fixpoint and returns the
// entry fact of every reached block. Unreachable blocks are absent from
// the result. The iteration is capped well above what any monotone
// analysis on these CFGs needs, so a non-monotone transfer cannot hang
// the vet run.
func ForwardFixpoint[F any](g *CFG, an FlowAnalysis[F]) map[*Block]F {
	in := make(map[*Block]F, len(g.Blocks))
	in[g.Entry] = an.Entry()
	// FIFO worklist with membership dedup: a block whose input changes
	// while it is already pending is not enqueued again — the pending
	// visit will see the joined fact. Without the dedup, a wide join point
	// (a 200-case switch funnelling into one block) would be enqueued once
	// per incoming edge and transfer quadratically. Popping advances a
	// head index instead of re-slicing so the queue memory is reused once
	// the head catches up.
	work := make([]*Block, 1, len(g.Blocks)+1)
	work[0] = g.Entry
	head := 0
	queued := make([]bool, len(g.Blocks))
	queued[g.Entry.Index] = true
	maxSteps := 64*len(g.Blocks) + 256
	for steps := 0; head < len(work) && steps < maxSteps; steps++ {
		b := work[head]
		head++
		if head == len(work) {
			work, head = work[:0], 0
		}
		queued[b.Index] = false
		out := an.Transfer(b, in[b])
		for _, e := range b.Succs {
			f := out
			if an.Refine != nil {
				f = an.Refine(e, out)
			}
			cur, seen := in[e.To]
			next := f
			if seen {
				next = an.Join(cur, f)
			}
			if seen && an.Equal(cur, next) {
				continue
			}
			in[e.To] = next
			if !queued[e.To.Index] {
				queued[e.To.Index] = true
				work = append(work, e.To)
			}
		}
	}
	return in
}

// solve runs the analysis to its fixpoint over g, then replays every
// reached block once with its converged entry fact — the pass in which an
// analyzer reports.
func solve[F any](g *CFG, an FlowAnalysis[F], replay func(b *Block, in F)) {
	facts := ForwardFixpoint(g, an)
	for _, b := range g.Blocks {
		if in, reached := facts[b]; reached {
			replay(b, in)
		}
	}
}

// cow returns the write handle of a copy-on-write map fact: reads go
// through *fact, and the first call clones the shared input into *fact
// before handing it out for writing.
func cow[M ~map[K]V, K comparable, V any](fact *M) func() M {
	cloned := false
	return func() M {
		if !cloned {
			*fact, cloned = maps.Clone(*fact), true
		}
		return *fact
	}
}

// forEachFunc is the per-function driver: it visits the CFG of every
// function body in the package that want admits (nil admits all) — each
// declaration, then each function literal inside it, analyzed from its
// own entry — together with the enclosing declaration and its program
// function (nil without a program view), whose locally-evident bindings
// cover the nested literals too.
func forEachFunc(pass *Pass, want func(*ast.FuncDecl) bool, visit func(fd *ast.FuncDecl, pf *ProgFunc, g *CFG)) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || (want != nil && !want(fd)) {
				continue
			}
			fn, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			pf := pass.Prog.FuncOf(fn)
			for _, g := range funcCFGs(fd.Body) {
				visit(fd, pf, g)
			}
		}
	}
}
