package core

import (
	"fmt"
	"math"
)

// PathResult is the outcome of the adaptation path search: the PADs (with
// symbolic links resolved) forming the least-total-overhead root-to-leaf
// path, and their summed overhead in seconds.
type PathResult struct {
	PADs  []PADMeta
	Total float64
}

// ErrNoFeasiblePath is returned (wrapped) when every root-to-leaf path has
// infinite total overhead for the environment.
var ErrNoFeasiblePath = fmt.Errorf("core: no feasible adaptation path")

// FindPath implements the adaptation path search algorithm (Figure 6):
// mark every PAT node with its total overhead from Equation 3 — infinity
// meaning "not suitable for this client environment" — then traverse each
// root-to-leaf path depth-first and return the one with the least sum.
func FindPath(t *PAT, m OverheadModel, env Env) (PathResult, error) {
	return FindPathFiltered(t, m, env, nil)
}

// FindPathFiltered is FindPath with an authorization filter: PADs for
// which allow returns false are marked infeasible before the search, the
// hook used by the proxy's access-control extension. A nil filter allows
// everything.
//
// The search reads the PAT's slots and flattened paths, and returns the
// result of the reference algorithm the differential test compares it
// with: the same PADs, totals, tie-breaking and error texts.
func FindPathFiltered(t *PAT, m OverheadModel, env Env, allow func(PADMeta) bool) (PathResult, error) {
	if t == nil || t.paths == nil {
		// BuildPAT always records at least one path.
		return PathResult{}, fmt.Errorf("core: FindPath on a PAT not built by BuildPAT")
	}
	if err := m.Validate(); err != nil {
		return PathResult{}, err
	}
	if err := env.Validate(); err != nil {
		return PathResult{}, err
	}

	// Step 1: mark each node slot with its total overhead, into an array
	// on the stack instead of a fresh map; only a PAT with more nodes than
	// the array holds allocates. Symbolic links were resolved by BuildPAT.
	var buf [32]float64
	var marks []float64
	if len(t.ids) <= len(buf) {
		marks = buf[:len(t.ids)]
	} else {
		marks = make([]float64, len(t.ids))
	}
	for i, meta := range t.metas {
		if allow != nil && !allow(meta) {
			marks[i] = math.Inf(1)
			continue
		}
		marks[i] = m.padTotal(meta, env).Total()
	}

	// Step 2: scan the flattened root-to-leaf paths keeping the least
	// total; strict < keeps the first path in Paths() order on a tie.
	bestTotal := math.Inf(1)
	bestPath := -1
	for pi, path := range t.paths {
		total := 0.0
		for _, s := range path {
			total += marks[s]
		}
		if total < bestTotal {
			bestTotal = total
			bestPath = pi
		}
	}
	if math.IsInf(bestTotal, 1) {
		return PathResult{}, fmt.Errorf("%w for app %s in env {%s %s}", ErrNoFeasiblePath, t.AppID(), env.Dev.Key(), env.Ntwk.Key())
	}

	path := t.paths[bestPath]
	best := PathResult{PADs: make([]PADMeta, len(path)), Total: bestTotal}
	for j, s := range path {
		best.PADs[j] = t.metas[s]
	}
	return best, nil
}
