package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// simtimeForbidden are the time package functions that read or block on
// the wall clock.
var simtimeForbidden = map[string]bool{
	"Now":   true,
	"Sleep": true,
	"After": true,
	"Tick":  true,
}

// SimtimeAnalyzer forbids wall-clock time (time.Now, Sleep, After, ...)
// in simulation-deterministic packages: virtual time is durations the
// netsim models compute and the experiments add up.
var SimtimeAnalyzer = &Analyzer{
	Name: "simtime",
	Run:  runSimtime,
	// netsim, experiment and core must be strictly deterministic — simulated
	// time is computed from the models, never read — while the protocol
	// servers (cdn, appserver, proxy) are in scope so that their genuine
	// wall-clock sites (serving-path metrics; socket deadlines live in
	// inp.Conn, outside this scope) carry checked //fractal:allow simtime
	// annotations instead of silently drifting. faultnet's injection
	// decisions must never depend on the wall clock: only a stall blocks,
	// and only until the victim's own deadline fires (time.Until/NewTimer
	// are not in the forbidden set).
	scope: []string{"fractal/internal/netsim", "fractal/internal/experiment", "fractal/internal/core",
		"fractal/internal/cdn", "fractal/internal/appserver", "fractal/internal/proxy", "fractal/internal/faultnet"},
}

func runSimtime(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !simtimeForbidden[sel.Sel.Name] {
				return true
			}
			if packageOf(pass, f, sel) != "time" {
				return true
			}
			pass.Reportf(sel.Pos(),
				"time.%s is wall-clock time in simulation-deterministic package %s; compute virtual time from the netsim models (or annotate a genuine real-I/O site with //%s simtime)",
				sel.Sel.Name, pass.Pkg.Path, AllowPrefix)
			return true
		})
	}
}

// packageOf resolves the import path of the package a qualified selector's
// base identifier denotes, or "" if it is not a package reference. It
// prefers type information and falls back to matching the file's imports
// when type checking was incomplete.
func packageOf(pass *Pass, file *ast.File, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if obj, ok := pass.Pkg.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
		return "" // a variable or type, not a package qualifier
	}
	// Syntactic fallback: match the identifier against the file imports.
	for _, imp := range file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
		} else {
			name = path[strings.LastIndex(path, "/")+1:]
		}
		if name == id.Name {
			return path
		}
	}
	return ""
}
