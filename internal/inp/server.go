package inp

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"fractal/internal/arena"
)

// Handler serves the message that opens a session on a served connection.
// h and raw are the frame just received (raw is session-scoped: decode it
// before the next Recv on c); the rest of the exchange is read and
// answered through c. A non-nil error ends the connection.
type Handler func(c *Conn, h Header, raw []byte) error

// Server is the one INP serving loop, shared by the adaptation proxy, the
// PAD servers and the application server: goroutine-per-connection under a
// bounded concurrency semaphore, persistent connections carrying session
// after session, an optional per-operation idle bound, and a Close that
// drains. Each daemon contributes only its Handler. Server is safe for
// concurrent use.
type Server struct {
	name   string // the owning daemon, prefixed to errors and log lines
	handle Handler
	sem    chan struct{}
	logf   func(string, ...interface{})
	// idle bounds each read and write of a session; zero means no limit.
	idle time.Duration

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	// done is closed by Close so an accept loop blocked on the concurrency
	// semaphore abandons its pending connection instead of serving it after
	// shutdown began.
	done chan struct{}
	wg   sync.WaitGroup
}

// NewServer returns a serving loop for one daemon. maxConcurrent bounds
// simultaneously served connections; logf defaults to log.Printf.
func NewServer(name string, maxConcurrent int, logf func(string, ...interface{}), handle Handler) (*Server, error) {
	if maxConcurrent < 1 {
		return nil, fmt.Errorf("%s: server concurrency must be >= 1, got %d", name, maxConcurrent)
	}
	if logf == nil {
		logf = log.Printf
	}
	return &Server{name: name, handle: handle, sem: make(chan struct{}, maxConcurrent), logf: logf, done: make(chan struct{})}, nil
}

// SetIdleTimeout bounds every read and write of a session, so a peer that
// stops sending — or stops reading a reply — releases its serving
// goroutine within d. It must be called before Serve.
func (s *Server) SetIdleTimeout(d time.Duration) { s.idle = d }

// Serve accepts connections from l until Close. It returns nil after a
// clean shutdown, once every in-flight session has drained.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("%s: server already closed", s.name)
	}
	s.ln = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				s.wg.Wait()
				return nil
			}
			return fmt.Errorf("%s: accept: %w", s.name, err)
		}
		select {
		case s.sem <- struct{}{}:
			if s.admit() {
				go s.session(conn)
				continue
			}
		case <-s.done:
		}
		// Close ran while this connection waited for a concurrency slot:
		// drop it rather than serving it after shutdown began.
		conn.Close()
		s.wg.Wait()
		return nil
	}
}

// admit counts one more in-flight session unless Close has begun. Taking
// the decision under mu orders every wg.Add before Close's wg.Wait.
func (s *Server) admit() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.wg.Add(1)
	return true
}

// session serves one accepted connection on its own goroutine.
func (s *Server) session(conn net.Conn) {
	defer func() {
		conn.Close()
		<-s.sem
		s.wg.Done()
	}()
	if err := s.ServeConn(conn); err != nil {
		s.logf("%s: session from %s: %v", s.name, conn.RemoteAddr(), err)
	}
}

// Close stops accepting and does not return until every in-flight session
// has drained. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	var err error
	if !alreadyClosed {
		close(s.done)
		if ln != nil {
			err = ln.Close()
		}
	}
	s.wg.Wait()
	return err
}

// ServeConn serves sessions over an established connection until the peer
// disconnects. The connection is persistent — a client runs session after
// session without paying a dial for each — and its read and body buffers
// come from one arena session released when it ends. A clean disconnect
// at a session boundary returns nil; a connection that ends before its
// first message, or mid-frame, is an error.
func (s *Server) ServeConn(rw net.Conn) error {
	sess := arena.AcquireSession()
	defer sess.Release()
	c := NewConnSession(rw, sess)
	c.SetTimeout(s.idle)
	for first := true; ; first = false {
		h, raw, err := c.Recv()
		if err != nil {
			if first {
				return fmt.Errorf("reading first message: %w", err)
			}
			if errors.Is(err, io.EOF) {
				return nil // clean disconnect at a session boundary
			}
			return fmt.Errorf("reading next session: %w", err)
		}
		if err := s.handle(c, h, raw); err != nil {
			return err
		}
	}
}
