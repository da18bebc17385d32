// Package client is the lockheld bad fixture: mutexes provably held
// across blocking operations, self-deadlocks, and lock-order inversions.
package client

import (
	"sync"
	"time"

	"fractal/internal/syncx"
)

// conn has the net.Conn deadline shape, so Read is a blocking conn op.
type conn struct{}

func (conn) Read(p []byte) (int, error)      { return 0, nil }
func (conn) Write(p []byte) (int, error)     { return 0, nil }
func (conn) SetReadDeadline(time.Time) error { return nil }

type state struct {
	mu sync.Mutex
	rw sync.RWMutex
}

func heldAcrossRead(s *state, c conn, buf []byte) {
	s.mu.Lock()
	c.Read(buf) //want lockheld:2
	s.mu.Unlock()
}

func heldAcrossChannel(s *state, ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch <- 1 //want lockheld:2
	<-ch    //want lockheld:2
}

func heldAcrossSelect(s *state, ch chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { //want lockheld:2
	case <-ch:
	}
}

func heldAcrossSleep(s *state) {
	s.rw.RLock()
	time.Sleep(time.Millisecond) //want lockheld:2
	s.rw.RUnlock()
}

func selfDeadlock(s *state) {
	s.mu.Lock()
	s.mu.Lock() //want lockheld:2
	s.mu.Unlock()
}

func heldAcrossSingleflight(s *state, g *syncx.Group[string, int]) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g.Do("k", func() (int, error) { return 0, nil }) //want lockheld:2
}

type pairState struct {
	a sync.Mutex
	b sync.Mutex
}

func lockAB(p *pairState) {
	p.a.Lock()
	p.b.Lock() //want lockheld:2
	p.b.Unlock()
	p.a.Unlock()
}

func lockBA(p *pairState) {
	p.b.Lock()
	p.a.Lock() //want lockheld:2
	p.a.Unlock()
	p.b.Unlock()
}
