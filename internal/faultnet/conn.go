package faultnet

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"
)

// stream applies the byte-level fault classes (truncate, corrupt, reset)
// to a raw byte stream: the engine behind Conn, which provides locking.
type stream struct {
	fault    Fault
	rng      *rand.Rand
	readOff  int // cumulative inbound bytes
	writeOff int // cumulative outbound bytes
}

func newStream(f Fault, seed int64) *stream {
	if f.Kind == Corrupt && f.Count <= 0 {
		f.Count = 1
	}
	return &stream{fault: f, rng: rand.New(rand.NewSource(seed))}
}

// readBudget returns how many inbound bytes may still pass before the
// fault fires, or a negative number when the fault class does not bound
// reads.
func (s *stream) readBudget() int {
	switch s.fault.Kind {
	case Truncate, StallRead:
		return s.fault.After - s.readOff
	case Reset:
		return s.fault.After - (s.readOff + s.writeOff)
	}
	return -1
}

// corrupt XORs the bytes of p that fall inside the corruption window
// [After, After+Count) of the cumulative inbound stream. Masks are drawn
// from the seeded rand and never zero, so a corrupted byte always
// changes.
func (s *stream) corrupt(p []byte, n int) {
	start, count := s.fault.After, s.fault.Count
	for i := 0; i < n; i++ {
		off := s.readOff + i
		if off >= start && off < start+count {
			p[i] ^= byte(1 + s.rng.Intn(255))
		}
	}
}

// deadline is one direction's I/O deadline with change notification, so
// a stalled call re-arms when the victim moves its own deadline.
type deadline struct {
	mu      sync.Mutex
	t       time.Time
	changed chan struct{}
}

func newDeadline() *deadline { return &deadline{changed: make(chan struct{})} }

func (d *deadline) set(t time.Time) {
	d.mu.Lock()
	d.t = t
	close(d.changed)
	d.changed = make(chan struct{})
	d.mu.Unlock()
}

func (d *deadline) get() (time.Time, chan struct{}) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.t, d.changed
}

// Conn wraps a live net.Conn with one scripted fault. It implements
// net.Conn; deadlines set by the application pass through to the real
// socket and also bound injected stalls, so a deadline-disciplined
// caller always returns from a stalled call with os.ErrDeadlineExceeded
// in bounded time. Conn is safe for concurrent use.
type Conn struct {
	nc net.Conn

	mu sync.Mutex
	st *stream

	rd, wd *deadline

	closeOnce sync.Once
	closed    chan struct{}
}

// WrapConn applies one fault to an established connection.
func WrapConn(nc net.Conn, f Fault, seed int64) *Conn {
	return &Conn{
		nc: nc, st: newStream(f, seed),
		rd: newDeadline(), wd: newDeadline(),
		closed: make(chan struct{}),
	}
}

// stall blocks until the given deadline passes or the connection is
// closed, mirroring a peer (or path) that has silently gone away.
func (c *Conn) stall(d *deadline) error {
	for {
		t, changed := d.get()
		var fire <-chan time.Time
		var timer *time.Timer
		if !t.IsZero() {
			wait := time.Until(t)
			if wait <= 0 {
				return os.ErrDeadlineExceeded
			}
			timer = time.NewTimer(wait)
			fire = timer.C
		}
		select {
		case <-fire:
			return os.ErrDeadlineExceeded
		case <-changed:
			// Deadline moved: re-arm against the new value.
		case <-c.closed:
			if timer != nil {
				timer.Stop()
			}
			return net.ErrClosed
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	st := c.st
	switch st.fault.Kind {
	case StallRead:
		if b := st.readBudget(); b <= 0 {
			c.mu.Unlock()
			return 0, c.stall(c.rd)
		} else if len(p) > b {
			p = p[:b]
		}
	case Truncate:
		if b := st.readBudget(); b <= 0 {
			c.mu.Unlock()
			c.closeUnderlying()
			return 0, io.EOF
		} else if len(p) > b {
			p = p[:b]
		}
	case Reset:
		if b := st.readBudget(); b <= 0 {
			c.mu.Unlock()
			c.closeUnderlying()
			return 0, ErrReset
		} else if len(p) > b {
			p = p[:b]
		}
	}
	c.mu.Unlock()
	// The socket read happens outside the lock so a concurrent Write is
	// not serialized behind a blocking Read.
	n, err := c.nc.Read(p)
	c.mu.Lock()
	if st.fault.Kind == Corrupt {
		st.corrupt(p, n)
	}
	st.readOff += n
	c.mu.Unlock()
	return n, err
}

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	st := c.st
	allowed := len(p)
	var terminal error
	switch st.fault.Kind {
	case StallWrite:
		b := st.fault.After - st.writeOff
		if b <= 0 {
			c.mu.Unlock()
			return 0, c.stall(c.wd)
		}
		if allowed > b {
			allowed = b
			terminal = nil // stall after the prefix lands
		}
	case Reset:
		b := st.fault.After - (st.readOff + st.writeOff)
		if b <= 0 {
			c.mu.Unlock()
			c.closeUnderlying()
			return 0, ErrReset
		}
		if allowed > b {
			allowed = b
			terminal = ErrReset
		}
	}
	c.mu.Unlock()
	n, err := c.nc.Write(p[:allowed])
	c.mu.Lock()
	st.writeOff += n
	c.mu.Unlock()
	if err != nil {
		return n, err
	}
	if allowed < len(p) {
		if terminal != nil {
			c.closeUnderlying()
			return n, terminal
		}
		// StallWrite: the prefix landed, the rest never will.
		return n, c.stall(c.wd)
	}
	return n, nil
}

// closeUnderlying tears down the real socket (so the peer observes the
// failure too) without marking the wrapper closed.
func (c *Conn) closeUnderlying() { _ = c.nc.Close() }

// Close implements net.Conn.
func (c *Conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closed)
		err = c.nc.Close()
	})
	return err
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.nc.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.rd.set(t)
	c.wd.set(t)
	return c.nc.SetDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.rd.set(t)
	return c.nc.SetReadDeadline(t)
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.wd.set(t)
	return c.nc.SetWriteDeadline(t)
}

// Dialer dials through a fault schedule: each Dial consumes the next
// scripted fault. A nil Schedule dials clean, so a Dialer can stand in
// for net.Dial unconditionally. Dialer is safe for concurrent use.
type Dialer struct {
	// Schedule scripts the faults; nil means every dial is clean.
	Schedule *Schedule
	// Timeout bounds the underlying TCP dial; zero means no bound.
	Timeout time.Duration
}

// Dial connects like net.DialTimeout and wraps the connection with the
// next scripted fault. A Refuse fault fails here without touching the
// network.
func (d *Dialer) Dial(network, addr string) (net.Conn, error) {
	f := Fault{}
	var seed int64
	if d.Schedule != nil {
		f, _, seed = d.Schedule.nextFault()
	}
	if f.Kind == Refuse {
		return nil, fmt.Errorf("faultnet: dial %s: %w", addr, ErrRefused)
	}
	nc, err := net.DialTimeout(network, addr, d.Timeout)
	if err != nil {
		return nil, err
	}
	if f.Kind == None {
		return nc, nil
	}
	return WrapConn(nc, f, seed), nil
}
