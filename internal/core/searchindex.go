package core

// searchIndex is the compiled form of a PAT for the negotiation hot path.
// BuildPAT (and AddPAD, after a mutation) precomputes everything FindPath
// otherwise re-derives per call: the deterministic node order, each node's
// symbolic link resolved to concrete metadata, and every root-to-leaf path
// flattened to integer offsets. With the index in place a search marks
// overheads into a []Breakdown on the stack indexed by node slot — no
// per-call map, no sort, no tree walk — while producing a PathResult
// identical to the reference algorithm (pinned by the differential test in
// search_differential_test.go).
type searchIndex struct {
	// ids holds every node id in sorted order — the exact order the
	// reference algorithm marks nodes in.
	ids []string
	// metas[i] is ids[i]'s metadata with symbolic links resolved.
	metas []PADMeta
	// paths are the root-to-leaf paths of Paths(), in the same order
	// (the tie-breaking order of the search), as offsets into ids.
	paths [][]int32
}

// compile builds the search index from the current tree shape. It is called
// with the tree fully validated, so resolution cannot fail in practice; an
// error is still propagated rather than swallowed.
func (t *PAT) compile() error {
	ids := t.allIDs()
	slot := make(map[string]int32, len(ids))
	for i, id := range ids {
		slot[id] = int32(i)
	}
	metas := make([]PADMeta, len(ids))
	for i, id := range ids {
		m, err := t.Resolve(id)
		if err != nil {
			return err
		}
		metas[i] = m
	}
	raw := t.Paths()
	paths := make([][]int32, len(raw))
	for i, p := range raw {
		ip := make([]int32, len(p))
		for j, id := range p {
			ip[j] = slot[id]
		}
		paths[i] = ip
	}
	t.index = &searchIndex{ids: ids, metas: metas, paths: paths}
	return nil
}
