// Command fractal-vet runs the repo-specific static-analysis suite over
// the module: determinism (simtime, rawrand), error-handling (errdiscard),
// digest-comparison hygiene (digestsafe), and the flow-sensitive checks
// built on the one CFG/dataflow engine and its interprocedural call-graph
// summaries — lock discipline (lockheld) and hot-path allocation and
// arena-lifetime hygiene (hotpath). See internal/analysis for the
// invariants and the //fractal:allow annotation syntax.
//
// Usage:
//
//	fractal-vet [-json|-sarif] [-enable a,b] [-disable c] [-timing] [packages]
//	fractal-vet -pads [module.pad ...]
//
// With no arguments (or "./...") every package of the enclosing module is
// analyzed. -pads switches fractal-vet to the mobile-code plane: it runs
// the static bytecode verifier (internal/mobilecode/verify) over every
// builtin PAD module — and over each packed module file named on the
// command line — printing one proof summary per program. Exit status: 0
// clean, 1 findings/rejections, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"fractal/internal/analysis"
	"fractal/internal/mobilecode"
	"fractal/internal/mobilecode/verify"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("fractal-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	sarifOut := fs.Bool("sarif", false, "emit diagnostics as a SARIF 2.1.0 log (for CI code-scanning upload)")
	enable := fs.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := fs.String("disable", "", "comma-separated analyzers to skip")
	list := fs.Bool("list", false, "list available analyzers and exit")
	timing := fs.Bool("timing", false, "print a per-analyzer wall-time report to stderr")
	pads := fs.Bool("pads", false, "verify builtin PAD bytecode (and any packed module files given as arguments) instead of Go sources")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(stderr, "fractal-vet: -json and -sarif are mutually exclusive")
		return 2
	}
	if *pads {
		return runPads(fs.Args(), *jsonOut, stdout, stderr)
	}
	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := analysis.Select(*enable, *disable)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	pkgs, err := loadTargets(loader, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	start := time.Now()
	diags, timings := analysis.RunTimed(pkgs, analyzers)
	wall := time.Since(start)
	switch {
	case *sarifOut:
		// A clean run still emits a valid (empty-results) log so the CI
		// upload step always has a file.
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(analysis.SARIF(diags, analyzers, loader.ModuleDir)); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if *timing {
		printTimings(stderr, timings, wall, len(pkgs))
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// printTimings renders the per-analyzer wall-time report, slowest first.
// Analyzer entries are cumulative across packages; "(summaries)" is the
// one-off interprocedural program build, and the wall line the whole
// analysis.
func printTimings(w *os.File, timings []analysis.Timing, wall time.Duration, npkgs int) {
	sorted := make([]analysis.Timing, len(timings))
	copy(sorted, timings)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Duration > sorted[j].Duration })
	fmt.Fprintf(w, "fractal-vet timing (%d packages):\n", npkgs)
	for _, t := range sorted {
		fmt.Fprintf(w, "  %-12s %12s\n", t.Analyzer, t.Duration.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "  %-12s %12s\n", "wall", wall.Round(time.Microsecond))
}

// padReport is the JSON shape of one verified (or rejected) module in
// -pads -json output.
type padReport struct {
	Module  string         `json:"module"`
	Version string         `json:"version,omitempty"`
	Source  string         `json:"source"`
	Error   string         `json:"error,omitempty"`
	Encode  *verify.Report `json:"encode,omitempty"`
	Decode  *verify.Report `json:"decode,omitempty"`
}

// runPads verifies mobile-code modules rather than Go packages: every
// builtin PAD spec is built and put through the static verifier under the
// default sandbox, then each positional argument is read as a packed
// module file and verified the same way. One line per program summarizes
// the proof (instruction count, which is the exact cost; buffer-stack
// bound; resolved capabilities); a rejection prints the typed verifier
// error and fails the run.
func runPads(args []string, jsonOut bool, stdout, stderr *os.File) int {
	signer, err := mobilecode.NewSigner("fractal-vet")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	specs := mobilecode.BuiltinSpecs()
	specs = append(specs, mobilecode.RsyncSpec(), mobilecode.CascadeSpec())
	specs = append(specs, mobilecode.TranscoderSpecs()...)
	sb := mobilecode.DefaultSandbox()

	var reports []padReport
	for _, spec := range specs {
		r := padReport{Module: spec.ID, Source: "builtin"}
		m, err := mobilecode.BuildModule(spec, "vet", signer)
		if err != nil {
			r.Error = err.Error()
		} else if rep, err := verify.Module(m, sb); err != nil {
			r.Error = err.Error()
		} else {
			r.Version, r.Encode, r.Decode = m.Version, rep.Encode, rep.Decode
		}
		reports = append(reports, r)
	}
	for _, path := range args {
		r := padReport{Module: path, Source: path}
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if rep, err := verify.Packed(data, sb); err != nil {
			r.Error = err.Error()
		} else {
			r.Module, r.Version = rep.ID, rep.Version
			r.Encode, r.Decode = rep.Encode, rep.Decode
		}
		reports = append(reports, r)
	}

	rejected := 0
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		for _, r := range reports {
			if r.Error != "" {
				rejected++
			}
		}
	} else {
		for _, r := range reports {
			if r.Error != "" {
				rejected++
				fmt.Fprintf(stdout, "%-16s REJECTED: %s\n", r.Module, r.Error)
				continue
			}
			fmt.Fprintf(stdout, "%-16s encode %s\n", r.Module, padSummary(r.Encode))
			fmt.Fprintf(stdout, "%-16s decode %s\n", "", padSummary(r.Decode))
		}
		fmt.Fprintf(stdout, "verified %d modules, %d rejected\n", len(reports)-rejected, rejected)
	}
	if rejected > 0 {
		return 1
	}
	return 0
}

// padSummary renders one program's proof on a single line.
func padSummary(rep *verify.Report) string {
	return fmt.Sprintf("%d instr bufs<=%d calls=%s", rep.Instructions, rep.MaxBufDepth, strings.Join(rep.Calls, ","))
}

// loadTargets resolves the package arguments: none or "./..." means the
// whole module; otherwise each argument is a directory (absolute or
// relative) holding one package.
func loadTargets(loader *analysis.Loader, args []string) ([]*analysis.Package, error) {
	wholeModule := len(args) == 0
	for _, a := range args {
		if a == "./..." || a == "all" {
			wholeModule = true
		}
	}
	if wholeModule {
		return loader.LoadAll()
	}
	var pkgs []*analysis.Package
	for _, a := range args {
		dir, err := filepath.Abs(a)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(loader.ModuleDir, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("fractal-vet: %s is outside module %s", a, loader.ModuleDir)
		}
		path := loader.ModulePath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		pkg, err := loader.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
