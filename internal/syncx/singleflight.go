// Package syncx provides small concurrency primitives shared by the
// serving-path packages. A singleflight Group collapses duplicate
// concurrent work: the proxy's negotiation plane runs one adaptation path
// search per unique cache key no matter how many identical clients
// stampede a cold cache, and a CDN edgeserver performs one origin fill
// per object however many concurrent misses arrive. Each fans independent
// items out over the cores: the application server's proactive
// precompute and the workload generator's per-page synthesis.
package syncx

import (
	"fmt"
	"sync"
)

// call is one in-flight execution of a Group function.
type call[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

// Group collapses concurrent Do calls with the same key into a single
// execution of fn: the first caller (the leader) runs fn, every caller
// that arrives before it finishes blocks and shares the leader's result.
// Once the leader finishes the key is forgotten, so later calls execute
// fn again. Keys are any comparable type, so a composite key costs no
// allocation. The zero value is ready to use; a Group must not be copied
// after first use.
type Group[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*call[V]
}

// Do executes fn once per concurrent set of callers sharing key. It
// returns fn's value and error, plus joined=true when this caller shared
// a leader's execution instead of running fn itself.
func (g *Group[K, V]) Do(key K, fn func() (V, error)) (v V, err error, joined bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[K]*call[V]{}
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err, true
	}
	c := &call[V]{}
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	finished := false
	defer func() {
		if !finished {
			// fn panicked: the panic propagates to the leader, but
			// followers must not observe a zero value with a nil error.
			c.err = fmt.Errorf("syncx: singleflight leader panicked for key %v", key)
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		c.wg.Done()
	}()
	c.val, c.err = fn()
	finished = true
	return c.val, c.err, false
}
