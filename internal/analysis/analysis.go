// Package analysis is fractal-vet: a repo-specific static-analysis suite
// built entirely on the stdlib go/ast + go/parser + go/types stack (the
// module is dependency-free and must stay that way). It has no command:
// TestVetSelfCheck runs the whole suite over the module in `go test ./...`
// and fails on any unsuppressed finding.
//
// The repo's core correctness properties — "simulation results are
// repeatable" and "PADs are verified before deployment" — are invariants
// about how code is written, not just runtime behaviour. Each analyzer
// machine-checks one of them, and each is kept because re-introducing the
// bug it was written for makes it fire (DESIGN.md, "Analyzer receipts"):
//
//   - simtime:    wall-clock time sources are forbidden in
//     simulation-deterministic packages; virtual time is
//     computed from the netsim models.
//   - rawrand:    the global math/rand source is forbidden; randomness
//     comes from injected, seeded *rand.Rand values.
//   - errdiscard: io.Reader/io.Writer and codec encode/decode errors (and
//     Read byte counts — the short-read bug class) must not be
//     discarded.
//   - digestsafe: digest equality goes through the designated constant-time
//     helper, never ad-hoc ==/bytes.Equal.
//   - lockheld:   (flow-sensitive) no mutex is provably held across a
//     blocking operation, no lock is re-acquired while held, and
//     known locks are acquired in a consistent order.
//
// lockheld runs on the flow-sensitive engine: a per-function driver over
// an intraprocedural CFG (cfg.go), a forward-dataflow solver with its
// replay and copy-on-write helpers (dataflow.go), and a "may block"
// classifier (lockheld.go). A call graph with bottom-up function summaries
// (callgraph.go, summary.go) lets lockheld see through calls: blocking
// behaviour composes across any number of in-set hops.
//
// Integers a peer sends are not an analyzer's business: every one is read
// through wire.Reader, which bounds counts by the bytes present, and a
// structural test (TestBinaryDecodeOnlyInBoundedReaders) keeps
// encoding/binary decoding inside the few bounded readers. Nor is
// allocation: the hot entry points' allocs/op are pinned exactly by
// AllocsPerRun tests and the bench-gate snapshot rows, and a structural
// test (TestSessionBorrowsOnlyInConn) keeps arena session borrows inside
// inp's connection, which shares the session's lifetime.
//
// A finding can be suppressed at a genuine exception site (for example a
// wall-clock serving metric) with a checked annotation comment on the same
// or the preceding line:
//
//	//fractal:allow simtime — wall-clock metric on the real serving path
//
// Annotations are "checked" in that an allow comment which suppresses
// nothing is itself reported, so stale allowlists cannot accumulate.
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check run over a type-checked package.
type Analyzer struct {
	Name string
	Run  func(*Pass)
	// scope, when non-empty, lists the only import paths the analyzer runs
	// on; run applies it.
	scope []string
}

// Pass carries one analyzer's view of one package and collects its
// diagnostics. Prog is the interprocedural view of the whole run's package
// set (call graph + function summaries); it is shared and read-only.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	Prog     *Program
	diags    []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// AllowPrefix introduces a suppression annotation comment.
const AllowPrefix = "fractal:allow"

// allowAnnotation is one parsed //fractal:allow comment.
type allowAnnotation struct {
	analyzer string
	file     string
	line     int
	pos      token.Pos
	used     bool
}

// collectAllows parses every fractal:allow annotation in the package.
func collectAllows(fset *token.FileSet, files []*ast.File) []*allowAnnotation {
	var out []*allowAnnotation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, AllowPrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, AllowPrefix))
				if len(fields) == 0 {
					continue
				}
				p := fset.Position(c.Pos())
				out = append(out, &allowAnnotation{
					analyzer: fields[0],
					file:     p.Filename,
					line:     p.Line,
					pos:      c.Pos(),
				})
			}
		}
	}
	return out
}

// run executes the analyzers over the packages, applies allow
// annotations, reports unused annotations, and returns the surviving
// diagnostics sorted by position. Analyzers run one after another, in
// suite order, on each package their scope admits. TestVetSelfCheck and
// the fixture tests are its callers.
func run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	prog := BuildProgram(pkgs)
	enabled := map[string]bool{}
	for _, a := range analyzers {
		enabled[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		allows := collectAllows(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			if len(a.scope) > 0 && !slices.Contains(a.scope, pkg.Path) {
				continue
			}
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, Prog: prog}
			a.Run(pass)
			for _, d := range pass.diags {
				if !suppressed(d, allows) {
					out = append(out, d)
				}
			}
		}
		// An allow annotation naming an enabled analyzer that suppressed
		// nothing is stale; report it so allowlists stay honest.
		for _, al := range allows {
			if al.used || !enabled[al.analyzer] {
				continue
			}
			p := pkg.Fset.Position(al.pos)
			out = append(out, Diagnostic{
				Analyzer: "allowcheck",
				File:     p.Filename,
				Line:     p.Line,
				Col:      p.Column,
				Message:  fmt.Sprintf("unused //%s %s annotation (nothing to suppress here; remove it)", AllowPrefix, al.analyzer),
			})
		}
	}
	slices.SortFunc(out, func(a, b Diagnostic) int {
		return cmp.Or(cmp.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line), cmp.Compare(a.Col, b.Col), cmp.Compare(a.Analyzer, b.Analyzer))
	})
	return out
}

// suppressed reports whether an annotation on the diagnostic's line or the
// line above covers it, marking the annotation used.
func suppressed(d Diagnostic, allows []*allowAnnotation) bool {
	hit := false
	for _, al := range allows {
		if al.analyzer != d.Analyzer || al.file != d.File {
			continue
		}
		if al.line == d.Line || al.line == d.Line-1 {
			al.used = true
			hit = true
		}
	}
	return hit
}

// allAnalyzers returns the full fractal-vet suite in stable order.
func allAnalyzers() []*Analyzer {
	return []*Analyzer{
		SimtimeAnalyzer,
		RawrandAnalyzer,
		ErrdiscardAnalyzer,
		DigestsafeAnalyzer,
		LockheldAnalyzer,
	}
}
