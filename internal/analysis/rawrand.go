package analysis

import (
	"go/ast"
)

// rawrandAllowed are the math/rand package-level names that construct or
// parameterize an explicit generator rather than consuming the shared
// global source.
var rawrandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	// Types referenced in declarations.
	"Rand":   true,
	"Source": true,
	"Zipf":   true,
	// math/rand/v2 constructors.
	"NewPCG":       true,
	"NewChaCha8":   true,
	"NewZipfian":   true,
	"PCG":          true,
	"ChaCha8":      true,
	"Source64":     true,
	"Int64Source":  true,
	"Uint64Source": true,
}

// RawrandAnalyzer forbids the global math/rand top-level functions:
// workload generation and mobile-code blobs must be reproducible, so every
// random draw comes from an injected, seeded *rand.Rand.
var RawrandAnalyzer = &Analyzer{
	Name: "rawrand",
	Run:  runRawrand,
}

func runRawrand(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || rawrandAllowed[sel.Sel.Name] {
				return true
			}
			switch packageOf(pass, f, sel) {
			case "math/rand", "math/rand/v2":
			default:
				return true
			}
			pass.Reportf(sel.Pos(),
				"rand.%s draws from the non-reproducible global math/rand source; thread a seeded *rand.Rand instead",
				sel.Sel.Name)
			return true
		})
	}
}
