// Package netsim provides the simulated execution environment Fractal's
// experiments run on: a deterministic discrete-event virtual clock, network
// link models with application-level efficiency, device profiles with
// CPU-speed scaling, and a capacity-bounded server model for contention
// experiments.
//
// The paper's testbed (physical desktop/laptop/PDA hosts on LAN/WLAN/
// Bluetooth, plus PlanetLab nodes) is replaced by these models; DESIGN.md
// documents why each substitution preserves the behaviour the evaluation
// measures.
package netsim

import (
	"fmt"
	"time"
)

// event is a scheduled callback in the virtual timeline.
type event struct {
	at  time.Duration
	seq uint64 // tie-breaker preserving schedule order at equal times
	fn  func()
}

// eventBefore is the heap order: timestamp, then schedule order. The pair
// makes the timeline a stable total order, so two runs scheduling the same
// events execute them identically.
func eventBefore(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// VirtualClock is a discrete-event simulation clock. Events are executed in
// timestamp order; executing an event may schedule further events. The zero
// value is ready to use.
//
// The pending set is kept in an inlined 4-ary heap of event values rather
// than container/heap over pointers: no per-event heap allocation, no
// interface boxing on push/pop, and the shallower tree does ~half the
// compare/swap levels of a binary heap at large queue depths. The moves
// counter tallies element moves during sifts; the regression test pins it
// to the O(log n)-per-operation envelope at a hundred thousand events.
type VirtualClock struct {
	now    time.Duration
	seq    uint64
	events []event
	moves  uint64
}

// NewVirtualClock returns a clock positioned at time zero with an empty
// event queue.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

// Now returns the current virtual time.
func (c *VirtualClock) Now() time.Duration { return c.now }

// Schedule registers fn to run delay after the current virtual time.
// A negative delay is treated as zero.
func (c *VirtualClock) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	c.seq++
	c.events = append(c.events, event{at: c.now + delay, seq: c.seq, fn: fn})
	c.siftUp(len(c.events) - 1)
}

// pop removes and returns the earliest pending event. The queue must be
// non-empty.
func (c *VirtualClock) pop() event {
	e := c.events[0]
	last := len(c.events) - 1
	c.events[0] = c.events[last]
	c.events[last] = event{} // release the callback for GC
	c.events = c.events[:last]
	if last > 0 {
		c.siftDown(0)
	}
	return e
}

// siftUp restores the heap invariant from index i towards the root.
func (c *VirtualClock) siftUp(i int) {
	e := c.events[i]
	for i > 0 {
		p := (i - 1) / 4
		if !eventBefore(e, c.events[p]) {
			break
		}
		c.events[i] = c.events[p]
		c.moves++
		i = p
	}
	c.events[i] = e
}

// siftDown restores the heap invariant from index i towards the leaves.
func (c *VirtualClock) siftDown(i int) {
	n := len(c.events)
	e := c.events[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for j := first + 1; j < last; j++ {
			if eventBefore(c.events[j], c.events[best]) {
				best = j
			}
		}
		if !eventBefore(c.events[best], e) {
			break
		}
		c.events[i] = c.events[best]
		c.moves++
		i = best
	}
	c.events[i] = e
}

// Run drains the event queue, advancing virtual time to each event's
// timestamp before invoking it. It returns the final virtual time.
func (c *VirtualClock) Run() time.Duration {
	for len(c.events) > 0 {
		e := c.pop()
		if e.at > c.now {
			c.now = e.at
		}
		e.fn()
	}
	return c.now
}

// Step executes the single earliest pending event, if any, and reports
// whether one was executed.
func (c *VirtualClock) Step() bool {
	if len(c.events) == 0 {
		return false
	}
	e := c.pop()
	if e.at > c.now {
		c.now = e.at
	}
	e.fn()
	return true
}

// Pending returns the number of events waiting in the queue.
func (c *VirtualClock) Pending() int { return len(c.events) }

// Seconds converts a floating-point second count into a Duration, guarding
// against negative and non-finite inputs which would otherwise corrupt the
// timeline.
func Seconds(s float64) (time.Duration, error) {
	if s < 0 || s != s || s > 1e12 {
		return 0, fmt.Errorf("netsim: invalid duration %v seconds", s)
	}
	return time.Duration(s * float64(time.Second)), nil
}
