// Package faultnet is a deterministic, seed-driven network fault
// injector for exercising Fractal's resilience plane. It wraps live
// sockets (net.Conn) and injects connection refusal, read/write stalls,
// mid-frame truncation, byte corruption, and connection resets according
// to a scripted Schedule:
// faults are consumed in dial order, so a given (schedule, seed) pair
// produces byte-identical outcomes run after run, regardless of wall
// clock or goroutine interleaving.
//
// Determinism rules (the same invariants fractal-vet enforces for the
// simulator): corruption bytes come from a *rand.Rand derived from the
// schedule seed and the connection's dial index — never from the global
// math/rand source — and nothing in the fault decision path reads the
// wall clock. The only time-dependent behaviour is a stall, which by
// construction lasts until the victim's own I/O deadline (or Close)
// fires; a stalled call on a deadline-bounded connection therefore
// always returns os.ErrDeadlineExceeded in bounded time, and a stalled
// call with no deadline documents the caller's bug by blocking until
// Close.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"fractal/internal/netsim"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

// The fault classes of the resilience test plan: everything the paper's
// hostile pervasive environments do to a connection short of lying
// plausibly (which corruption approximates).
const (
	// None lets the connection behave normally.
	None Kind = iota
	// Refuse fails the dial itself with ErrRefused.
	Refuse
	// StallRead blocks the first Read at or past Fault.After bytes until
	// the read deadline expires or the connection is closed.
	StallRead
	// StallWrite blocks the first Write at or past Fault.After bytes
	// until the write deadline expires or the connection is closed.
	StallWrite
	// Truncate ends the inbound stream after Fault.After bytes, as if
	// the peer closed mid-frame: the reader sees io.EOF.
	Truncate
	// Corrupt XORs Fault.Count inbound bytes (default 1) starting at
	// offset Fault.After with nonzero masks drawn from the seeded rand.
	Corrupt
	// Reset kills the connection after Fault.After total bytes in either
	// direction: both Read and Write return ErrReset.
	Reset
	kindMax
)

var kindNames = [...]string{
	None: "none", Refuse: "refuse", StallRead: "stall-read",
	StallWrite: "stall-write", Truncate: "truncate", Corrupt: "corrupt",
	Reset: "reset",
}

// String names the fault class.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// Typed injection errors, so tests and callers can distinguish an
// injected failure from an organic one with errors.Is.
var (
	// ErrRefused is returned by Dialer.Dial for a Refuse fault.
	ErrRefused = errors.New("faultnet: connection refused (injected)")
	// ErrReset is returned by Read/Write once a Reset fault fires.
	ErrReset = errors.New("faultnet: connection reset (injected)")
)

// Fault is one scripted fault applied to one connection.
type Fault struct {
	Kind Kind
	// After is the number of bytes allowed through before the fault
	// fires (truncate, corrupt, stall, reset). Zero fires immediately.
	After int
	// Count is how many bytes a Corrupt fault flips; zero means one.
	Count int
}

// Schedule is a deterministic fault script. Each dialed connection
// consumes the next Fault in order; once the script is exhausted every
// further connection is clean. A Schedule is safe for concurrent use,
// but note that concurrent dials race for script positions — drive
// dials sequentially when byte-reproducibility across runs matters.
type Schedule struct {
	mu     sync.Mutex
	seed   int64
	faults []Fault
	next   int
	counts [kindMax]int64
}

// NewSchedule builds a script over the given faults. The seed drives
// corruption masks; two schedules with equal faults and seeds inject
// byte-identical damage.
func NewSchedule(seed int64, faults ...Fault) *Schedule {
	return &Schedule{seed: seed, faults: append([]Fault(nil), faults...)}
}

// ScheduleForLink derives a fault script from a netsim link model: over
// `dials` connections, each faults with probability link.LossRate
// (corrupting one early byte), drawn from a rand seeded by `seed` so the
// script is reproducible. A clean link yields an all-clean script. This
// is the bridge between the simulator's loss model and the live TCP
// plane: the same LossRate that scales simulated bandwidth now damages
// real frames.
func ScheduleForLink(link netsim.Link, seed int64, dials int) (*Schedule, error) {
	if err := link.Validate(); err != nil {
		return nil, fmt.Errorf("faultnet: %w", err)
	}
	if dials < 0 {
		return nil, fmt.Errorf("faultnet: negative dial count %d", dials)
	}
	rng := rand.New(rand.NewSource(seed))
	faults := make([]Fault, dials)
	for i := range faults {
		if rng.Float64() < link.LossRate {
			faults[i] = Fault{Kind: Corrupt, After: rng.Intn(16), Count: 1}
		}
	}
	return NewSchedule(seed, faults...), nil
}

// nextFault pops the script entry for the next connection, returning the
// fault, the dial index, and the per-connection corruption seed.
func (s *Schedule) nextFault() (Fault, int, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := s.next
	s.next++
	var f Fault
	if idx < len(s.faults) {
		f = s.faults[idx]
	}
	s.counts[f.Kind]++
	// Mix the dial index into the seed (splitmix-style odd constant) so
	// each connection's corruption stream is independent of scheduling.
	return f, idx, s.seed ^ (int64(idx+1) * int64(0x9E3779B97F4A7C15&0x7FFFFFFFFFFFFFFF))
}

// Counts reports how many connections drew each fault kind so far,
// keyed by Kind.String(). Clean dials past the end of the script count
// under "none".
func (s *Schedule) Counts() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]int64{}
	for k, n := range s.counts {
		if n > 0 {
			out[Kind(k).String()] = n
		}
	}
	return out
}

// Remaining reports how many scripted faults have not yet been consumed.
func (s *Schedule) Remaining() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next >= len(s.faults) {
		return 0
	}
	return len(s.faults) - s.next
}
