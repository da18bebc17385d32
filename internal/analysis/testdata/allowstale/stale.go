// Package client is the stale-allow fixture: its annotation names the
// enabled lockheld analyzer but suppresses nothing, so allowcheck must
// report it.
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
