// Package analysis is fractal-vet: a repo-specific static-analysis suite
// built entirely on the stdlib go/ast + go/parser + go/types stack (the
// module is dependency-free and must stay that way).
//
// The repo's core correctness properties — "simulation results are
// repeatable" and "PADs are verified before deployment" — are invariants
// about how code is written, not just runtime behaviour. Each analyzer
// machine-checks one of them, and each is kept because re-introducing the
// bug it was written for makes it fire (DESIGN.md, "Analyzer receipts"):
//
//   - simtime:    wall-clock time sources are forbidden in
//     simulation-deterministic packages; virtual time flows
//     through netsim.Clock.
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
//   - wiretaint:  (flow-sensitive) integers decoded from the wire must
//     pass an upper-bound check before sizing an allocation.
//   - hotpath:    (flow-sensitive) functions annotated //fractal:hotpath
//     avoid per-call allocation constructs, pinning the
//     benchmarked allocs/op; session arena buffers never outlive
//     their session.
//
// The flow-sensitive analyzers share one engine: one per-function driver
// over an intraprocedural CFG (cfg.go), one forward-dataflow solver with its
// replay and copy-on-write helpers (dataflow.go), one "may block" classifier
// (lockheld.go), and one taint engine with two rule sets — wire integers
// and session arena borrows (wiretaint.go). A call graph with bottom-up
// function summaries (callgraph.go, summary.go) lets lockheld and
// wiretaint see through calls: blocking behaviour and taint transfer
// compose across any number of in-set hops.
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
	"time"
)

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
	// Related points at the other ends of an interprocedural finding: the
	// decode site feeding a sink, the lock acquisition a blocking call
	// violates.
	Related []Related `json:"related,omitempty"`
}

// Related is one secondary location attached to a diagnostic.
type Related struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check run over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
	// scope, when non-empty, lists the only import paths the analyzer runs
	// on; RunTimed applies it.
	scope []string
}

// Pass carries one analyzer's view of one package and collects its
// diagnostics. Prog is the interprocedural view of the whole Run package
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
	p.ReportRelated(pos, nil, format, args...)
}

// ReportRelated records a finding at pos carrying secondary locations.
func (p *Pass) ReportRelated(pos token.Pos, related []Related, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
		Related:  related,
	})
}

// RelatedAt builds one Related entry from a position in this pass's
// file set. An invalid position yields a zero entry the caller should
// drop; every current call site passes positions of nodes it just
// visited, so the guard is belt and braces.
func (p *Pass) RelatedAt(pos token.Pos, message string) Related {
	if !pos.IsValid() {
		return Related{Message: message}
	}
	position := p.Fset.Position(pos)
	return Related{File: position.Filename, Line: position.Line, Col: position.Column, Message: message}
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

// Timing is one analyzer's cumulative wall time across the whole run
// (the pseudo-entry "(summaries)" is the interprocedural program build:
// call graph plus bottom-up function summaries).
type Timing struct {
	Analyzer string        `json:"analyzer"`
	Duration time.Duration `json:"duration"`
}

// Run executes the analyzers over the packages, applies allow annotations,
// reports unused annotations, and returns the surviving diagnostics sorted
// by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunTimed(pkgs, analyzers)
	return diags
}

// RunTimed is Run plus per-analyzer wall-time accounting. Analyzers run
// one after another, in suite order, on each package their scope admits.
func RunTimed(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []Timing) {
	t0 := time.Now()
	prog := BuildProgram(pkgs)
	timings := []Timing{{Analyzer: "(summaries)", Duration: time.Since(t0)}}
	enabled := map[string]bool{}
	for _, a := range analyzers {
		timings = append(timings, Timing{Analyzer: a.Name})
		enabled[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		allows := collectAllows(pkg.Fset, pkg.Files)
		for i, a := range analyzers {
			if len(a.scope) > 0 && !slices.Contains(a.scope, pkg.Path) {
				continue
			}
			start := time.Now()
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, Prog: prog}
			a.Run(pass)
			timings[i+1].Duration += time.Since(start)
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
				Pos:      p,
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
	return out, timings
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

// Analyzers returns the full fractal-vet suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		SimtimeAnalyzer,
		RawrandAnalyzer,
		ErrdiscardAnalyzer,
		DigestsafeAnalyzer,
		LockheldAnalyzer,
		WiretaintAnalyzer,
		HotpathAnalyzer,
	}
}

// Select filters the suite by enable/disable comma lists ("" means all).
func Select(enable, disable string) ([]*Analyzer, error) {
	all := Analyzers()
	byName := map[string]*Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	picked := all
	if enable != "" {
		picked = nil
		for _, name := range strings.Split(enable, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("analysis: unknown analyzer %q", name)
			}
			picked = append(picked, a)
		}
	}
	if disable != "" {
		drop := map[string]bool{}
		for _, name := range strings.Split(disable, ",") {
			name = strings.TrimSpace(name)
			if _, ok := byName[name]; !ok {
				return nil, fmt.Errorf("analysis: unknown analyzer %q", name)
			}
			drop[name] = true
		}
		picked = slices.DeleteFunc(picked, func(a *Analyzer) bool { return drop[a.Name] })
	}
	return picked, nil
}
