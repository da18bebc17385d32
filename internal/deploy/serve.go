package deploy

import (
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// maxSessions bounds each daemon's simultaneously served connections.
const maxSessions = 256

// idleTimeout bounds every read and write of a served session, so a silent
// connection frees its session slot instead of holding it. Tests shorten it.
var idleTimeout = 30 * time.Second

// server is the serving loop (inp.Server) every daemon front end embeds.
type server interface {
	Serve(net.Listener) error
	Close() error
	SetIdleTimeout(time.Duration)
}

// Endpoint is one daemon served on a listener.
type Endpoint struct {
	srv  server
	ln   net.Listener
	done chan struct{} // closed once Serve has returned
	err  error         // Serve's result, read after done
}

// Serve builds a daemon's front end over backend with newServer (proxy.NewServer,
// cdn.NewPADServer or appserver.NewINPServer) under the shared session bound
// and serves it on addr with the idle bound armed, logging through logf.
func Serve[B any, S server](addr string, newServer func(B, int, func(string, ...interface{})) (S, error),
	backend B, logf func(string, ...interface{})) (*Endpoint, error) {
	srv, err := newServer(backend, maxSessions, logf)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv.SetIdleTimeout(idleTimeout)
	e := &Endpoint{srv: srv, ln: ln, done: make(chan struct{})}
	go func() {
		e.err = srv.Serve(ln)
		close(e.done)
	}()
	return e, nil
}

// Addr is the address the endpoint listens on.
func (e *Endpoint) Addr() string { return e.ln.Addr().String() }

// Close stops accepting and returns once every in-flight session has
// drained. It is idempotent.
func (e *Endpoint) Close() error {
	err := e.srv.Close()
	// A server closed before its accept loop registered the listener never
	// closes it itself; closing twice is harmless.
	_ = e.ln.Close()
	<-e.done
	return err
}

// Run calls ready once SIGINT and SIGTERM are caught, so a daemon that
// announces itself there is never stopped undrained, and serves until one
// arrives or the accept loop fails; then it drains as Close does.
func (e *Endpoint) Run(ready func()) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	ready()
	select {
	case <-sig:
		return e.Close()
	case <-e.done:
		_ = e.Close() // drains the sessions still in flight
		return e.err
	}
}
