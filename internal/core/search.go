package core

import (
	"fmt"
	"math"
	"sort"
)

// PathResult is the outcome of the adaptation path search: the PADs (with
// symbolic links resolved) forming the least-total-overhead root-to-leaf
// path, their summed overhead in seconds, and the per-node breakdowns.
type PathResult struct {
	PADs      []PADMeta
	NodeIDs   []string // tree node ids, which may include symbolic links
	Total     float64
	Breakdown map[string]Breakdown // keyed by tree node id
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
// The search runs over the PAT's compiled index (see searchindex.go) and
// returns results identical — node order, tie-breaking, totals, breakdowns
// — to the reference algorithm the differential test compares it with.
func FindPathFiltered(t *PAT, m OverheadModel, env Env, allow func(PADMeta) bool) (PathResult, error) {
	if t == nil {
		return PathResult{}, fmt.Errorf("core: FindPath on nil PAT")
	}
	if err := m.Validate(); err != nil {
		return PathResult{}, err
	}
	if err := env.Validate(); err != nil {
		return PathResult{}, err
	}
	idx := t.index
	if idx == nil {
		// BuildPAT always compiles, so only a zero-value PAT gets here.
		return PathResult{}, fmt.Errorf("core: FindPath on a PAT not built by BuildPAT")
	}

	// Step 1: mark each node slot with its total overhead, into an array
	// on the stack instead of a fresh map; only a PAT with more nodes than
	// the array holds allocates. Symbolic links were resolved at compile
	// time.
	var buf [32]Breakdown
	var marks []Breakdown
	if len(idx.ids) <= len(buf) {
		marks = buf[:len(idx.ids)]
	} else {
		marks = make([]Breakdown, len(idx.ids))
	}
	for i := range idx.ids {
		if allow != nil && !allow(idx.metas[i]) {
			marks[i] = Breakdown{ClientComp: math.Inf(1)}
			continue
		}
		marks[i] = m.padTotal(idx.metas[i], env)
	}

	// Step 2: scan the flattened root-to-leaf paths keeping the least
	// total; strict < preserves the reference tie-breaking (first path in
	// Paths() order wins).
	bestTotal := math.Inf(1)
	bestPath := -1
	for pi, path := range idx.paths {
		total := 0.0
		for _, s := range path {
			total += marks[s].Total()
		}
		if total < bestTotal {
			bestTotal = total
			bestPath = pi
		}
	}
	if math.IsInf(bestTotal, 1) {
		return PathResult{}, fmt.Errorf("%w for app %s in env {%s %s}", ErrNoFeasiblePath, t.AppID(), env.Dev.Key(), env.Ntwk.Key())
	}

	path := idx.paths[bestPath]
	best := PathResult{
		PADs:      make([]PADMeta, 0, len(path)),
		NodeIDs:   make([]string, len(path)),
		Total:     bestTotal,
		Breakdown: make(map[string]Breakdown, len(path)),
	}
	for j, s := range path {
		id := idx.ids[s]
		best.NodeIDs[j] = id
		best.PADs = append(best.PADs, idx.metas[s])
		best.Breakdown[id] = marks[s]
	}
	return best, nil
}

// allIDs returns every node id in deterministic order.
func (t *PAT) allIDs() []string {
	ids := make([]string, 0, len(t.nodes))
	for id := range t.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
