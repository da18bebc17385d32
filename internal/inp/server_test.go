package inp_test

import (
	"bytes"
	"fmt"
	"net"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"fractal/internal/appserver"
	"fractal/internal/cdn"
	"fractal/internal/experiment"
	"fractal/internal/inp"
	"fractal/internal/proxy"
)

// daemon is one of the three INP front ends, all of which run the shared
// inp.Server loop; the shutdown and idle contracts below are the loop's,
// so they are checked through each daemon's own constructor and methods.
type daemon struct {
	name string
	// start builds the daemon with the given concurrency bound and log.
	start func(maxConcurrent int, logf func(string, ...interface{})) (server, error)
	// req is a request the daemon answers with a repType frame, leaving
	// the session open.
	reqType inp.MsgType
	req     interface{}
	repType inp.MsgType
}

// request sends the daemon's request without reading the reply.
func (d daemon) request(c *inp.Conn) error { return c.Send(d.reqType, d.req) }

// exchange runs one full request/reply.
func (d daemon) exchange(c *inp.Conn) error {
	if err := d.request(c); err != nil {
		return err
	}
	h, _, err := c.Recv()
	if err == nil && h.Type != d.repType {
		err = fmt.Errorf("%s answered %v with %v, want %v", d.name, d.reqType, h.Type, d.repType)
	}
	return err
}

type server interface {
	Serve(net.Listener) error
	ServeConn(net.Conn) error
	Close() error
	SetIdleTimeout(time.Duration)
}

const bigModule = "/pads/big"

func daemons(t *testing.T) []daemon {
	t.Helper()
	cfg := experiment.DefaultSetupConfig()
	cfg.Pages = 4
	s, err := experiment.NewSetup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CDN.Origin().Publish(bigModule, make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	return []daemon{
		{
			name: "proxy",
			start: func(n int, logf func(string, ...interface{})) (server, error) {
				return proxy.NewServer(s.Proxy, n, logf)
			},
			reqType: inp.MsgAppMetaPush, req: inp.AppMetaPush{App: s.AppMeta}, repType: inp.MsgAppMetaAck,
		},
		{
			name: "cdn",
			start: func(n int, logf func(string, ...interface{})) (server, error) {
				return cdn.NewPADServer(s.CDN.Origin(), n, logf)
			},
			reqType: inp.MsgPADDownloadReq, req: inp.PADDownloadReq{URL: bigModule}, repType: inp.MsgPADDownloadRep,
		},
		{
			name: "appserver",
			start: func(n int, logf func(string, ...interface{})) (server, error) {
				return appserver.NewINPServer(s.App, n, logf)
			},
			reqType: inp.MsgAppReq,
			req:     inp.AppReq{AppID: "webapp", Resource: "page-000", ProtocolIDs: []string{"pad-direct"}},
			repType: inp.MsgAppRep,
		},
	}
}

// quiet discards the serving loop's session log.
func quiet(string, ...interface{}) {}

// acceptSignal reports on accepted each time Accept hands a connection to
// the serving loop.
type acceptSignal struct {
	net.Listener
	accepted chan struct{}
}

func (l *acceptSignal) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted <- struct{}{}
	}
	return c, err
}

// TestCloseDrainsAndDropsPendingConn pins the shutdown contract on every
// daemon. With one concurrency slot held by a live session and a second
// connection accepted but parked on the semaphore, Close must (1) not
// return while the live session is in flight, (2) make the accept loop
// drop the parked connection instead of serving it once a slot frees, and
// (3) return, with Serve returning nil, once the live session ends.
func TestCloseDrainsAndDropsPendingConn(t *testing.T) {
	for _, d := range daemons(t) {
		t.Run(d.name, func(t *testing.T) {
			srv, err := d.start(1, quiet)
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			sig := &acceptSignal{Listener: ln, accepted: make(chan struct{}, 2)}
			served := make(chan error, 1)
			go func() { served <- srv.Serve(sig) }()

			dial := func() net.Conn {
				conn, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { conn.Close() })
				_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
				<-sig.accepted
				return conn
			}
			live := dial()
			if err := d.exchange(inp.NewConn(live)); err != nil {
				t.Fatalf("live session: %v", err)
			}
			// The loop has accepted this one and cannot take the only slot.
			parked := dial()
			if err := d.request(inp.NewConn(parked)); err != nil {
				t.Fatalf("parked request: %v", err)
			}

			closed := make(chan error, 1)
			go func() { closed <- srv.Close() }()
			select {
			case <-closed:
				t.Fatal("Close returned while a session was in flight")
			case <-time.After(150 * time.Millisecond):
			}

			// End the live session: its slot frees, and a loop still
			// blocked on the semaphore would now serve the parked conn.
			live.Close()
			select {
			case err := <-closed:
				if err != nil {
					t.Errorf("Close: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Close did not return after the last session ended")
			}
			select {
			case err := <-served:
				if err != nil {
					t.Errorf("Serve returned %v after Close", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Serve did not return after Close")
			}
			if _, _, err := inp.ReadMessage(parked); err == nil {
				t.Error("the connection parked on the semaphore was served after Close")
			}
		})
	}
}

// TestCloseLeavesNoSessionGoroutines pins that Close reclaims every
// goroutine the serving loop started, on every daemon: after completed
// sessions, a peer that connects and sends nothing, and a peer that stalls
// mid-frame — both released by the idle timeout — no goroutine is left in
// the accept loop or a session. It looks for those functions in the
// goroutine stacks rather than counting goroutines, so goroutines other
// code leaves running cannot make it flaky.
func TestCloseLeavesNoSessionGoroutines(t *testing.T) {
	for _, d := range daemons(t) {
		t.Run(d.name, func(t *testing.T) {
			srv, err := d.start(4, quiet)
			if err != nil {
				t.Fatal(err)
			}
			srv.SetIdleTimeout(100 * time.Millisecond)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			sig := &acceptSignal{Listener: ln, accepted: make(chan struct{}, 4)}
			served := make(chan error, 1)
			go func() { served <- srv.Serve(sig) }()
			dial := func() net.Conn {
				conn, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { conn.Close() })
				_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
				<-sig.accepted
				return conn
			}

			for i := 0; i < 2; i++ {
				done := dial()
				if err := d.exchange(inp.NewConn(done)); err != nil {
					t.Fatalf("completed session %d: %v", i, err)
				}
				done.Close()
			}
			dial() // connects and sends nothing
			var frame bytes.Buffer
			if err := d.request(inp.NewConn(&frame)); err != nil {
				t.Fatal(err)
			}
			if _, err := dial().Write(frame.Bytes()[:frame.Len()/2]); err != nil {
				t.Fatalf("half a frame: %v", err)
			}

			closed := make(chan error, 1)
			go func() { closed <- srv.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Errorf("Close: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Close did not return with two stalled peers past the idle timeout")
			}
			select {
			case err := <-served:
				if err != nil {
					t.Errorf("Serve returned %v after Close", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Serve did not return after Close")
			}
			var left []string
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				if left = servingGoroutines(); len(left) == 0 {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d serving goroutines outlive Close:\n%s", len(left), strings.Join(left, "\n\n"))
				}
			}
		})
	}
}

// servingGoroutines returns the stacks of goroutines running the serving
// loop: the accept loop or a session.
func servingGoroutines() []string {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 2); err != nil {
		return []string{err.Error()}
	}
	var out []string
	for _, g := range strings.Split(buf.String(), "\n\n") {
		if strings.Contains(g, "inp.(*Server).session") || strings.Contains(g, "inp.(*Server).Serve") {
			out = append(out, g)
		}
	}
	return out
}

// TestIdleTimeoutReleasesStalledWriter: with an idle timeout set, a client
// that sends a request and then never reads the reply must not pin the
// serving goroutine — the write side is bounded like the read side. The
// transport is net.Pipe, which buffers nothing, so every reply (the PAD
// server's 1 MiB module included) blocks in Write until the deadline.
func TestIdleTimeoutReleasesStalledWriter(t *testing.T) {
	const idle = 100 * time.Millisecond
	for _, d := range daemons(t) {
		t.Run(d.name, func(t *testing.T) {
			srv, err := d.start(1, quiet)
			if err != nil {
				t.Fatal(err)
			}
			srv.SetIdleTimeout(idle)
			client, serverEnd := net.Pipe()
			var once sync.Once
			release := func() { once.Do(func() { client.Close(); serverEnd.Close() }) }
			defer release()

			done := make(chan error, 1)
			go func() { done <- srv.ServeConn(serverEnd) }()
			_ = client.SetWriteDeadline(time.Now().Add(5 * time.Second))
			if err := d.request(inp.NewConn(client)); err != nil {
				t.Fatalf("request: %v", err)
			}
			select {
			case err := <-done:
				if err == nil {
					t.Error("ServeConn reported a clean end for a stalled reply")
				}
			case <-time.After(20 * idle):
				release() // unblock the goroutine before failing
				<-done
				t.Fatalf("serving goroutine still blocked writing %v after the %v idle timeout", 20*idle, idle)
			}
		})
	}
}

// TestVersion1FrameRefusedAtHeader pins the one-encoding contract on every
// daemon: a request stamped with the retired header version 1 is refused
// before any handler runs — no reply comes back, the connection closes,
// and the session log names the refusal.
func TestVersion1FrameRefusedAtHeader(t *testing.T) {
	for _, d := range daemons(t) {
		t.Run(d.name, func(t *testing.T) {
			logged := make(chan string, 1) // the one session this test opens
			srv, err := d.start(1, func(format string, args ...interface{}) {
				logged <- fmt.Sprintf(format, args...)
			})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- srv.Serve(ln) }()
			defer func() {
				if err := srv.Close(); err != nil {
					t.Error(err)
				}
				if err := <-served; err != nil {
					t.Error(err)
				}
			}()

			var frame bytes.Buffer
			fw := inp.NewFrameWriter(&frame)
			if err := fw.WriteMessage(inp.Header{Version: 1, Type: d.reqType, Seq: 1}, d.req); err != nil {
				t.Fatal(err)
			}
			if err := fw.Flush(); err != nil {
				t.Fatal(err)
			}
			conn, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := conn.Write(frame.Bytes()); err != nil {
				t.Fatal(err)
			}
			if n, err := conn.Read(make([]byte, 1)); n != 0 || err == nil {
				t.Fatalf("read %d bytes (err %v) after a version-1 %v, want the connection closed with no reply", n, err, d.reqType)
			}
			select {
			case line := <-logged:
				if !strings.Contains(line, "unsupported protocol version 1") {
					t.Fatalf("session log %q does not name the refused version", line)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the refused session was never logged")
			}
		})
	}
}
