// Package analysis is fractal-vet: a repo-specific static-analysis suite
// built entirely on the stdlib go/ast + go/parser + go/types stack (the
// module is dependency-free and must stay that way).
//
// The repo's core correctness properties — "simulation results are
// repeatable" and "PADs are verified before deployment" — are invariants
// about how code is written, not just runtime behaviour. Each analyzer
// machine-checks one of them:
//
//   - simtime:    wall-clock time sources are forbidden in
//     simulation-deterministic packages; virtual time flows
//     through netsim.Clock.
//   - rawrand:    the global math/rand source is forbidden; randomness
//     comes from injected, seeded *rand.Rand values.
//   - errdiscard: io.Reader/io.Writer and codec encode/decode errors (and
//     Read byte counts — the short-read bug class) must not be
//     discarded.
//   - opcomplete: every VM opcode has an assembler mnemonic and a
//     dispatch-switch handler.
//   - digestsafe: digest equality goes through the designated constant-time
//     helper, never ad-hoc ==/bytes.Equal.
//   - deadline:   conn Read/Write and INP frame calls in the networking
//     packages must be guarded by a deadline or SetTimeout, so a
//     stalled peer cannot park a session goroutine forever.
//   - lockheld:   (flow-sensitive) no mutex is provably held across a
//     blocking operation, no lock is re-acquired while held, and
//     known locks are acquired in a consistent order.
//   - wiretaint:  (flow-sensitive) integers decoded from the wire must
//     pass an upper-bound check before sizing an allocation.
//   - hotpath:    (flow-sensitive) functions annotated //fractal:hotpath
//     avoid per-call allocation constructs, pinning the
//     benchmarked allocs/op.
//   - goleak:     (interprocedural) goroutines spawned in the serving-plane
//     packages are tied to a context/close/deadline exit signal,
//     so a stalled peer cannot leak a goroutine per session.
//
// The flow-sensitive analyzers run on a shared intraprocedural CFG +
// forward-dataflow engine (cfg.go, dataflow.go) — the host-language
// sibling of the PAD bytecode verifier's stack checker. On top of that,
// a call graph with bottom-up function summaries (callgraph.go,
// summary.go) lets lockheld, wiretaint, and goleak see through calls:
// taint transfer, blocking behaviour, and spawn obligations compose
// across any number of in-set hops.
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
	"fmt"
	"go/ast"
	"go/token"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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
	// violates, the unguarded operation inside a leaked goroutine.
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

// RunTimed is Run plus per-analyzer wall-time accounting. Within each
// package the analyzers execute concurrently (they are independent by
// construction: each gets its own Pass, and Package/Program are read-only
// by the time analyzers run), bounded by GOMAXPROCS so vet time stays
// flat as the suite grows.
func RunTimed(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []Timing) {
	t0 := time.Now()
	prog := BuildProgram(pkgs)
	progDur := time.Since(t0)

	durations := make([]atomic.Int64, len(analyzers))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var out []Diagnostic
	for _, pkg := range pkgs {
		allows := collectAllows(pkg.Fset, pkg.Files)
		passes := make([]*Pass, len(analyzers))
		var wg sync.WaitGroup
		for i, a := range analyzers {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, a *Analyzer) {
				defer func() {
					<-sem
					wg.Done()
				}()
				start := time.Now()
				pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, Prog: prog}
				a.Run(pass)
				durations[i].Add(int64(time.Since(start)))
				passes[i] = pass
			}(i, a)
		}
		wg.Wait()
		// Sequential collection in analyzer order keeps the output (and the
		// allow bookkeeping) deterministic regardless of scheduling.
		for _, pass := range passes {
			for _, d := range pass.diags {
				if suppressed(d, allows) {
					continue
				}
				out = append(out, d)
			}
		}
		// An allow annotation naming an enabled analyzer that suppressed
		// nothing is stale; report it so allowlists stay honest.
		enabled := map[string]bool{}
		for _, a := range analyzers {
			enabled[a.Name] = true
		}
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
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Col != out[j].Col {
			return out[i].Col < out[j].Col
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	timings := make([]Timing, 0, len(analyzers)+1)
	timings = append(timings, Timing{Analyzer: "(summaries)", Duration: progDur})
	for i, a := range analyzers {
		timings = append(timings, Timing{Analyzer: a.Name, Duration: time.Duration(durations[i].Load())})
	}
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
		OpcompleteAnalyzer,
		DigestsafeAnalyzer,
		DeadlineAnalyzer,
		LockheldAnalyzer,
		WiretaintAnalyzer,
		HotpathAnalyzer,
		GoleakAnalyzer,
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
		var kept []*Analyzer
		for _, a := range picked {
			if !drop[a.Name] {
				kept = append(kept, a)
			}
		}
		picked = kept
	}
	return picked, nil
}
