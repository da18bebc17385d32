// Package client is the stale-allow fixture: every annotation here names
// an enabled flow-sensitive analyzer but suppresses nothing, so allowcheck
// must report each one.
package client

import "sync"

type state struct {
	mu sync.Mutex
	n  int
}

func nothingBlocksHere(s *state) {
	s.mu.Lock()
	//fractal:allow lockheld — stale: no blocking op under the lock //want allowcheck:2
	s.n++
	s.mu.Unlock()
}

//fractal:hotpath fixture
func nothingAllocatesHere(n *int) int {
	//fractal:allow hotpath — stale: pointer arguments do not box //want allowcheck:2
	return *n + 1
}
