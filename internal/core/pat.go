package core

import (
	"fmt"
	"sort"
)

// PAT is the protocol adaptation tree (Section 3.4.1). Each node is a
// protocol adaptor; a child PAD is an auxiliary component of its parent,
// and exactly one child must accompany the parent at run time, so a
// complete application protocol is a path from the (virtual) application
// root to a leaf. Symbolic links let one PAD serve multiple parents while
// keeping the structure a tree.
//
// A PAT is immutable after BuildPAT, which lays it out as the search reads
// it: a search marks overheads into an array indexed by node slot and
// scans the flattened paths, with no per-call map, sort or tree walk.
type PAT struct {
	appID string
	// ids holds every node id in sorted order; a node's slot is its
	// offset here.
	ids []string
	// metas[i] is ids[i]'s metadata with symbolic links resolved.
	metas []PADMeta
	// paths are the root-to-leaf paths as slots, roots in AppMeta order
	// and children in listed order: the search's tie-breaking order.
	paths [][]int32
}

// BuildPAT constructs and validates the tree from pushed application
// metadata. Parent/Child links in the metadata must be consistent; alias
// targets must exist and not themselves be aliases; the structure must be
// acyclic.
func BuildPAT(app AppMeta) (*PAT, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	byID := make(map[string]PADMeta, len(app.PADs))
	for _, p := range app.PADs {
		byID[p.ID] = p
	}
	var roots []string
	for _, p := range app.PADs {
		if p.Alias != "" {
			target, ok := byID[p.Alias]
			if !ok {
				return nil, fmt.Errorf("core: PAT %s: PAD %s aliases unknown PAD %s", app.AppID, p.ID, p.Alias)
			}
			if target.Alias != "" {
				return nil, fmt.Errorf("core: PAT %s: PAD %s aliases %s which is itself an alias", app.AppID, p.ID, p.Alias)
			}
			if len(p.Children) > 0 {
				return nil, fmt.Errorf("core: PAT %s: symbolic link %s cannot have children", app.AppID, p.ID)
			}
		}
		for _, c := range p.Children {
			child, ok := byID[c]
			if !ok {
				return nil, fmt.Errorf("core: PAT %s: PAD %s lists unknown child %s", app.AppID, p.ID, c)
			}
			if child.Parent != p.ID {
				return nil, fmt.Errorf("core: PAT %s: PAD %s lists child %s whose Parent is %q", app.AppID, p.ID, c, child.Parent)
			}
		}
		if p.Parent == "" {
			roots = append(roots, p.ID)
			continue
		}
		parent, ok := byID[p.Parent]
		if !ok {
			return nil, fmt.Errorf("core: PAT %s: PAD %s has unknown parent %s", app.AppID, p.ID, p.Parent)
		}
		found := false
		for _, c := range parent.Children {
			if c == p.ID {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("core: PAT %s: PAD %s names parent %s, which does not list it", app.AppID, p.ID, p.Parent)
		}
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("core: PAT %s has no top-level PADs", app.AppID)
	}

	t := &PAT{appID: app.AppID, ids: make([]string, 0, len(byID)), metas: make([]PADMeta, len(byID))}
	for id := range byID {
		t.ids = append(t.ids, id)
	}
	sort.Strings(t.ids)
	slot := make(map[string]int32, len(t.ids))
	for i, id := range t.ids {
		slot[id] = int32(i)
		m := byID[id]
		if m.Alias != "" {
			m = byID[m.Alias]
		}
		t.metas[i] = m
	}

	// One walk from the roots refuses a cycle and a node with two parents,
	// and records every root-to-leaf path; a node it never reaches is
	// refused after it.
	const (
		inStack = 1
		done    = 2
	)
	state := make([]uint8, len(t.ids))
	var prefix []int32
	var visit func(id string) error
	visit = func(id string) error {
		s := slot[id]
		switch state[s] {
		case inStack:
			return fmt.Errorf("core: PAT %s contains a cycle through PAD %s", app.AppID, id)
		case done:
			return fmt.Errorf("core: PAT %s: PAD %s is reachable from two parents (use a symbolic link)", app.AppID, id)
		}
		state[s] = inStack
		prefix = append(prefix, s)
		children := byID[id].Children
		if len(children) == 0 {
			t.paths = append(t.paths, append([]int32(nil), prefix...))
		}
		for _, c := range children {
			if err := visit(c); err != nil {
				return err
			}
		}
		prefix = prefix[:len(prefix)-1]
		state[s] = done
		return nil
	}
	for _, r := range roots {
		if err := visit(r); err != nil {
			return nil, err
		}
	}
	for i, id := range t.ids {
		if state[i] != done {
			return nil, fmt.Errorf("core: PAT %s: PAD %s is not reachable from any root", app.AppID, id)
		}
	}
	return t, nil
}

// AppID returns the application the tree describes.
func (t *PAT) AppID() string { return t.appID }

// Len returns the number of nodes (including symbolic links).
func (t *PAT) Len() int { return len(t.ids) }

// Paths enumerates every root-to-leaf path as slices of node ids, in
// deterministic order. The number of paths equals the number of leaves.
func (t *PAT) Paths() [][]string {
	out := make([][]string, len(t.paths))
	for i, p := range t.paths {
		out[i] = make([]string, len(p))
		for j, s := range p {
			out[i][j] = t.ids[s]
		}
	}
	return out
}
