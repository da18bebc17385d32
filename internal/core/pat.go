package core

import (
	"fmt"
)

// PAT is the protocol adaptation tree (Section 3.4.1). Each node is a
// protocol adaptor; a child PAD is an auxiliary component of its parent,
// and exactly one child must accompany the parent at run time, so a
// complete application protocol is a path from the (virtual) application
// root to a leaf. Symbolic links let one PAD serve multiple parents while
// keeping the structure a tree.
type PAT struct {
	appID string
	nodes map[string]*patNode
	// roots are the top-level PADs in insertion order.
	roots []string
	// index is the compiled search index (see searchindex.go), built by
	// BuildPAT.
	index *searchIndex
}

type patNode struct {
	meta     PADMeta
	children []string
}

// BuildPAT constructs and validates the tree from pushed application
// metadata. Parent/Child links in the metadata must be consistent; alias
// targets must exist and not themselves be aliases; the structure must be
// acyclic.
func BuildPAT(app AppMeta) (*PAT, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	t := &PAT{appID: app.AppID, nodes: map[string]*patNode{}}
	for _, p := range app.PADs {
		t.nodes[p.ID] = &patNode{meta: p}
	}
	for _, p := range app.PADs {
		if p.Alias != "" {
			target, ok := t.nodes[p.Alias]
			if !ok {
				return nil, fmt.Errorf("core: PAT %s: PAD %s aliases unknown PAD %s", app.AppID, p.ID, p.Alias)
			}
			if target.meta.Alias != "" {
				return nil, fmt.Errorf("core: PAT %s: PAD %s aliases %s which is itself an alias", app.AppID, p.ID, p.Alias)
			}
			if len(p.Children) > 0 {
				return nil, fmt.Errorf("core: PAT %s: symbolic link %s cannot have children", app.AppID, p.ID)
			}
		}
		for _, c := range p.Children {
			child, ok := t.nodes[c]
			if !ok {
				return nil, fmt.Errorf("core: PAT %s: PAD %s lists unknown child %s", app.AppID, p.ID, c)
			}
			if child.meta.Parent != p.ID {
				return nil, fmt.Errorf("core: PAT %s: PAD %s lists child %s whose Parent is %q", app.AppID, p.ID, c, child.meta.Parent)
			}
		}
		if p.Parent != "" {
			parent, ok := t.nodes[p.Parent]
			if !ok {
				return nil, fmt.Errorf("core: PAT %s: PAD %s has unknown parent %s", app.AppID, p.ID, p.Parent)
			}
			found := false
			for _, c := range parent.meta.Children {
				if c == p.ID {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("core: PAT %s: PAD %s names parent %s, which does not list it", app.AppID, p.ID, p.Parent)
			}
		}
	}
	for _, p := range app.PADs {
		t.nodes[p.ID].children = append([]string(nil), p.Children...)
		if p.Parent == "" {
			t.roots = append(t.roots, p.ID)
		}
	}
	if len(t.roots) == 0 {
		return nil, fmt.Errorf("core: PAT %s has no top-level PADs", app.AppID)
	}
	if err := t.checkAcyclic(); err != nil {
		return nil, err
	}
	if err := t.compile(); err != nil {
		return nil, err
	}
	return t, nil
}

// checkAcyclic verifies the parent/child structure is a forest reachable
// from the roots with each node visited once.
func (t *PAT) checkAcyclic() error {
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := map[string]int{}
	var visit func(id string) error
	visit = func(id string) error {
		switch state[id] {
		case inStack:
			return fmt.Errorf("core: PAT %s contains a cycle through PAD %s", t.appID, id)
		case done:
			return fmt.Errorf("core: PAT %s: PAD %s is reachable from two parents (use a symbolic link)", t.appID, id)
		}
		state[id] = inStack
		for _, c := range t.nodes[id].children {
			if err := visit(c); err != nil {
				return err
			}
		}
		state[id] = done
		return nil
	}
	for _, r := range t.roots {
		if err := visit(r); err != nil {
			return err
		}
	}
	for id := range t.nodes {
		if state[id] != done {
			return fmt.Errorf("core: PAT %s: PAD %s is not reachable from any root", t.appID, id)
		}
	}
	return nil
}

// AppID returns the application the tree describes.
func (t *PAT) AppID() string { return t.appID }

// Len returns the number of nodes (including symbolic links).
func (t *PAT) Len() int { return len(t.nodes) }

// Resolve follows a symbolic link to its target metadata; non-links
// resolve to themselves.
func (t *PAT) Resolve(id string) (PADMeta, error) {
	n, ok := t.nodes[id]
	if !ok {
		return PADMeta{}, fmt.Errorf("core: PAT %s has no PAD %s", t.appID, id)
	}
	if n.meta.Alias == "" {
		return n.meta, nil
	}
	target, ok := t.nodes[n.meta.Alias]
	if !ok {
		return PADMeta{}, fmt.Errorf("core: PAT %s: dangling symbolic link %s -> %s", t.appID, id, n.meta.Alias)
	}
	return target.meta, nil
}

// Paths enumerates every root-to-leaf path as slices of node ids, in
// deterministic order. The number of paths equals the number of leaves.
func (t *PAT) Paths() [][]string {
	var out [][]string
	var walk func(id string, prefix []string)
	walk = func(id string, prefix []string) {
		prefix = append(prefix, id)
		n := t.nodes[id]
		if len(n.children) == 0 {
			out = append(out, append([]string(nil), prefix...))
			return
		}
		for _, c := range n.children {
			walk(c, prefix)
		}
	}
	for _, r := range t.roots {
		walk(r, nil)
	}
	return out
}
