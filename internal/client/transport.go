package client

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"fractal/internal/arena"
	"fractal/internal/cdn"
	"fractal/internal/core"
	"fractal/internal/inp"
	"fractal/internal/netsim"
)

// DialFunc opens a connection; it matches net.Dial so a faultnet.Dialer
// (or any other wrapper) can be injected in place of the real dialer.
type DialFunc func(network, addr string) (net.Conn, error)

// ErrSessionBroken marks an application session whose INP stream
// position is unknown (a mid-frame read error, timeout, or sequence
// violation desynchronized it). The session redials on the next call;
// ErrSessionBroken surfaces only when that redial fails too.
var ErrSessionBroken = errors.New("client: app session broken")

// dialBounded opens a TCP connection through the injected dialer if one
// is set, otherwise through net.DialTimeout (zero timeout = unbounded,
// the historical behaviour).
func dialBounded(dial DialFunc, timeout time.Duration, addr string) (net.Conn, error) {
	if dial != nil {
		return dial("tcp", addr)
	}
	return net.DialTimeout("tcp", addr, timeout)
}

// The TCP transports retry a failed exchange on a fresh connection with
// capped, jittered exponential backoff: retry n waits retryBase·2^(n-1),
// capped at retryCap, with the top half of that wait drawn at random so
// clients that failed together do not retry together.
const (
	retryAttempts = 3 // tries per exchange, the first included
	retryBase     = 50 * time.Millisecond
	retryCap      = 2 * time.Second
)

// backoff returns the wait before retry n (1-based).
func backoff(n int) time.Duration {
	d := retryBase << (n - 1)
	if d <= 0 || d > retryCap {
		d = retryCap
	}
	half := d / 2
	//fractal:allow rawrand backoff jitter exists to decorrelate clients, not to reproduce; tests replace the wait
	return d - half + time.Duration(rand.Int64N(int64(half)+1))
}

// retryable reports whether a failed attempt is worth repeating: an
// in-band answer from the peer (a refusal, a missing module) would only be
// given again, so only transport failures are retried.
func retryable(err error) bool {
	var pe *inp.PeerError
	return !errors.As(err, &pe)
}

// wait sleeps the backoff before retry n through sleep, or through
// time.Sleep when sleep is nil.
func wait(sleep func(time.Duration), n int) {
	if sleep == nil {
		sleep = time.Sleep
	}
	sleep(backoff(n))
}

// TCPNegotiator performs the Figure 4 negotiation against a live
// adaptation proxy over INP/TCP. ClientID, when set, identifies the
// principal for the proxy's access-control policy. A refused dial, a
// deadline, a reset or a corrupt frame is retried on a fresh connection;
// a refusal from the proxy itself is returned at once. The zero timeouts
// block forever on a stalled proxy; production configurations should set
// both.
type TCPNegotiator struct {
	Addr     string
	ClientID string
	// DialTimeout bounds the TCP dial; zero means no bound.
	DialTimeout time.Duration
	// CallTimeout bounds every individual read and write of the
	// negotiation exchange; zero means no bound.
	CallTimeout time.Duration
	// Dial, when set, replaces the real dialer (fault injection, SOCKS,
	// in-process transports). DialTimeout is then the dialer's concern.
	Dial DialFunc

	sleep func(time.Duration) // backoff wait; nil means time.Sleep
}

// Negotiate implements Negotiator.
func (t *TCPNegotiator) Negotiate(appID string, env core.Env, sessionRequests int) ([]core.PADMeta, error) {
	for n := 1; ; n++ {
		pads, err := t.negotiate(appID, env, sessionRequests)
		if err == nil || !retryable(err) {
			return pads, err
		}
		if n == retryAttempts {
			return nil, fmt.Errorf("client: negotiation for %s failed after %d attempts: %w", appID, n, err)
		}
		wait(t.sleep, n)
	}
}

// negotiate runs one exchange on a fresh connection.
func (t *TCPNegotiator) negotiate(appID string, env core.Env, sessionRequests int) ([]core.PADMeta, error) {
	conn, err := dialBounded(t.Dial, t.DialTimeout, t.Addr)
	if err != nil {
		return nil, fmt.Errorf("client: dialing proxy %s: %w", t.Addr, err)
	}
	defer conn.Close()
	c := inp.NewConn(conn)
	c.SetTimeout(t.CallTimeout)
	// Pipelined burst: INIT_REQ and CLI_META_REP leave in one write. The
	// wire still carries Figure 4's messages in order — the client just
	// does not wait for the CLI_META_REQ template before sending the
	// metadata it has already probed ("the client gets the content of
	// DevMeta and NtwkMeta locally"; here, the configured environment). A
	// fast-path proxy answers all three replies in one vectored write; a
	// classic proxy simply finds CLI_META_REP already buffered when it
	// asks for it.
	if err := c.Queue(inp.MsgInitReq, inp.InitReq{AppID: appID, ClientID: t.ClientID}); err != nil {
		return nil, fmt.Errorf("client: INIT exchange: %w", err)
	}
	if err := c.Queue(inp.MsgCliMetaRep,
		inp.CliMetaRep{Dev: env.Dev, Ntwk: env.Ntwk, SessionRequests: sessionRequests}); err != nil {
		return nil, fmt.Errorf("client: metadata exchange: %w", err)
	}
	if err := c.Flush(); err != nil {
		return nil, fmt.Errorf("client: INIT exchange: %w", err)
	}
	var initRep inp.InitRep
	if err := c.RecvInto(inp.MsgInitRep, &initRep); err != nil {
		return nil, fmt.Errorf("client: INIT exchange: %w", err)
	}
	if !initRep.OK {
		return nil, fmt.Errorf("client: INIT exchange: %w", &inp.PeerError{Message: "proxy refused negotiation: " + initRep.Reason})
	}
	var tmpl inp.CliMetaReq
	if err := c.RecvInto(inp.MsgCliMetaReq, &tmpl); err != nil {
		return nil, fmt.Errorf("client: CLI_META_REQ: %w", err)
	}
	var rep inp.PADMetaRep
	if err := c.RecvInto(inp.MsgPADMetaRep, &rep); err != nil {
		return nil, fmt.Errorf("client: metadata exchange: %w", err)
	}
	return rep.PADs, nil
}

// CDNFetcher downloads PAD modules from the simulated CDN.
type CDNFetcher struct {
	CDN    *cdn.CDN
	Region string
	Link   netsim.Link
	// Concurrent models how many simultaneous downloads share the edge.
	Concurrent int
}

// FetchPAD implements PADFetcher via the closest healthy edgeserver.
func (f *CDNFetcher) FetchPAD(meta core.PADMeta) ([]byte, error) {
	conc := f.Concurrent
	if conc < 1 {
		conc = 1
	}
	r, err := f.CDN.Retrieve(f.Region, meta.URL, f.Link, conc)
	if err != nil {
		return nil, err
	}
	return r.Data, nil
}

// TCPPADFetcher downloads PAD modules from a PAD server (edgeserver or
// centralized) over INP/TCP, one connection per download. A failed
// download is retried on a fresh connection as TCPNegotiator retries a
// negotiation; an in-band error from the server is returned at once.
type TCPPADFetcher struct {
	Addr string
	// DialTimeout bounds the TCP dial; zero means no bound.
	DialTimeout time.Duration
	// CallTimeout bounds each read/write of the download; zero means no
	// bound.
	CallTimeout time.Duration
	// Dial, when set, replaces the real dialer.
	Dial DialFunc

	sleep func(time.Duration) // backoff wait; nil means time.Sleep
}

// FetchPAD implements PADFetcher.
func (f *TCPPADFetcher) FetchPAD(meta core.PADMeta) ([]byte, error) {
	for n := 1; ; n++ {
		module, err := f.fetch(meta)
		if err == nil || !retryable(err) {
			return module, err
		}
		if n == retryAttempts {
			return nil, fmt.Errorf("client: PAD download %s failed after %d attempts: %w", meta.ID, n, err)
		}
		wait(f.sleep, n)
	}
}

// fetch runs one download on a fresh connection.
func (f *TCPPADFetcher) fetch(meta core.PADMeta) ([]byte, error) {
	conn, err := dialBounded(f.Dial, f.DialTimeout, f.Addr)
	if err != nil {
		return nil, fmt.Errorf("client: dialing PAD server %s: %w", f.Addr, err)
	}
	defer conn.Close()
	c := inp.NewConn(conn)
	c.SetTimeout(f.CallTimeout)
	var rep inp.PADDownloadRep
	err = c.Call(inp.MsgPADDownloadReq, &inp.PADDownloadReq{PADID: meta.ID, URL: meta.URL}, inp.MsgPADDownloadRep, &rep)
	if err != nil {
		return nil, fmt.Errorf("client: downloading %s: %w", meta.ID, err)
	}
	if rep.PADID != meta.ID {
		return nil, fmt.Errorf("client: PAD server returned %s, requested %s", rep.PADID, meta.ID)
	}
	return rep.Module, nil
}

// SessionConfig bounds a TCPAppSession's I/O. The zero value reproduces
// the historical unbounded behaviour.
type SessionConfig struct {
	// DialTimeout bounds the TCP dial (and each redial); zero = none.
	DialTimeout time.Duration
	// CallTimeout bounds each read/write of a content exchange; zero =
	// none.
	CallTimeout time.Duration
	// Dial, when set, replaces the real dialer.
	Dial DialFunc
}

// TCPAppSession is a persistent APP_REQ/APP_REP session with the
// application server over INP/TCP. After a transport-level failure the
// stream position is unknown, so the session marks itself broken and
// transparently redials on the next call rather than reading garbage
// from a half-consumed stream. TCPAppSession is safe for concurrent use.
//
// Two locks split the two jobs the old single mutex conflated. sessMu
// serializes content exchanges: an INP stream is a strict request/reply
// sequence, so exchanges must not interleave, and sessMu is therefore —
// deliberately — held across network I/O. mu guards only the state fields
// (conn, c, broken, closed, redials) and is never held across I/O, so
// Close and isBroken stay responsive while a peer stalls mid-exchange;
// Close tears down the live conn, which unblocks the in-flight Call.
type TCPAppSession struct {
	addr string
	cfg  SessionConfig

	// sessMu is the exchange lock (see type comment); acquired before mu,
	// never the other way around.
	sessMu sync.Mutex

	mu      sync.Mutex
	conn    net.Conn
	c       *inp.Conn
	broken  bool
	closed  bool
	redials int64
}

// DialAppSession opens an application session with the given bounds.
func DialAppSession(addr string, cfg SessionConfig) (*TCPAppSession, error) {
	s := &TCPAppSession{addr: addr, cfg: cfg}
	conn, c, err := s.dial()
	if err != nil {
		return nil, err
	}
	s.conn, s.c = conn, c
	return s, nil
}

// dial establishes a fresh connection. It takes no locks: dialing can
// block for the full dial timeout, and holding either lock across it
// would park Close behind an unresponsive network.
func (s *TCPAppSession) dial() (net.Conn, *inp.Conn, error) {
	conn, err := dialBounded(s.cfg.Dial, s.cfg.DialTimeout, s.addr)
	if err != nil {
		return nil, nil, fmt.Errorf("client: dialing application server %s: %w", s.addr, err)
	}
	c := inp.NewConn(conn)
	c.SetTimeout(s.cfg.CallTimeout)
	return conn, c, nil
}

// FetchContent implements ContentFetcher. An in-band peer error (the
// server answered MsgError) leaves the stream framed and the session
// healthy; any transport-level failure breaks the session, and the next
// call redials before retrying.
func (s *TCPAppSession) FetchContent(req inp.AppReq) (inp.AppRep, error) {
	return s.fetch(req, nil)
}

// fetch is FetchContent with the APP_REP body read into into when it is
// not nil (see inp.Conn.CallInto): the reply's payload then aliases into's
// storage, and the caller copies out what it keeps before releasing it.
func (s *TCPAppSession) fetch(req inp.AppReq, into *arena.Buffer) (inp.AppRep, error) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()

	s.mu.Lock()
	closed, broken := s.closed, s.broken
	s.mu.Unlock()
	if closed {
		return inp.AppRep{}, fmt.Errorf("client: app session to %s: session closed", s.addr)
	}
	if broken {
		if old := s.swapConn(nil, nil); old != nil {
			_ = old.Close() // drop the dead conn before redialing
		}
		// sessMu serializes the whole exchange including its redial; Close
		// takes only mu, so it is never parked behind the dial timeout.
		//fractal:allow lockheld redial is part of the serialized exchange; Close takes only mu
		conn, c, err := s.dial()
		if err != nil {
			return inp.AppRep{}, fmt.Errorf("%w; redial failed: %w", ErrSessionBroken, err)
		}
		s.mu.Lock()
		if s.closed {
			// Close won the race while we were dialing: do not resurrect.
			s.mu.Unlock()
			_ = conn.Close()
			return inp.AppRep{}, fmt.Errorf("client: app session to %s: session closed", s.addr)
		}
		s.conn, s.c = conn, c
		s.broken = false
		s.redials++
		s.mu.Unlock()
	}

	s.mu.Lock()
	conn, c := s.conn, s.c
	s.mu.Unlock()
	if c == nil {
		return inp.AppRep{}, fmt.Errorf("client: app session to %s: session closed", s.addr)
	}

	var rep inp.AppRep
	// sessMu (and only sessMu) is held across this round trip: it is the
	// exchange-serialization lock, and Close can still interrupt the call
	// by closing conn under mu.
	//fractal:allow lockheld sessMu deliberately serializes the INP exchange; Close interrupts via conn.Close
	if err := c.CallInto(inp.MsgAppReq, &req, inp.MsgAppRep, &rep, into); err != nil {
		var pe *inp.PeerError
		if !errors.As(err, &pe) {
			s.mu.Lock()
			s.broken = true
			s.mu.Unlock()
			_ = conn.Close()
			return inp.AppRep{}, fmt.Errorf("client: app session to %s: %w: %w", s.addr, ErrSessionBroken, err)
		}
		return inp.AppRep{}, err
	}
	return rep, nil
}

// swapConn installs a new connection pair under mu, returning the
// previous net.Conn (nil if none).
func (s *TCPAppSession) swapConn(conn net.Conn, c *inp.Conn) net.Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.conn
	s.conn, s.c = conn, c
	return prev
}

// isBroken reports whether the next call will have to redial. It does not
// wait for an in-flight exchange.
func (s *TCPAppSession) isBroken() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.broken
}

// redialCount reports how many times the session recovered by redialing.
func (s *TCPAppSession) redialCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.redials
}

// Close ends the session. It does not wait for an in-flight exchange:
// closing the connection forces any blocked Call to fail promptly.
func (s *TCPAppSession) Close() error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	conn := s.conn
	s.conn, s.c = nil, nil
	s.mu.Unlock()
	if alreadyClosed || conn == nil {
		return nil
	}
	return conn.Close()
}
