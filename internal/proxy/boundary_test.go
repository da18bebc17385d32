package proxy

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"fractal/internal/inp"
	"fractal/internal/netsim"
)

// These tests pin ServeConn's persistent-connection boundary semantics:
// a peer that disconnects *between* sessions is a clean goodbye
// (ServeConn returns nil), while EOF mid-header or mid-body is a
// protocol error — and the distinction must hold identically over real
// TCP and the in-memory netsim stream the simulations use, whatever wire
// version the peer advertises. Bodies are always binary; WireVersion is
// informational, so a peer advertising 0 (the value that once asked for
// JSON bodies, hence the "json" subtest name) must be served exactly like
// one advertising Version2.

var boundaryMatrix = []struct {
	transport string
	advert    int
}{
	{"tcp", 0},
	{"tcp", inp.Version2},
	{"netsim", 0},
	{"netsim", inp.Version2},
}

// advertName names a boundaryMatrix row after the body encoding its
// WireVersion advertisement used to select.
func advertName(advert int) string {
	if advert >= inp.Version2 {
		return "binary"
	}
	return "json"
}

// startServeConn runs ServeConn on the server end of a fresh transport
// pair and returns the client end plus the ServeConn result channel.
func startServeConn(t *testing.T, transport string, srv *Server) (net.Conn, chan error) {
	t.Helper()
	errc := make(chan error, 1)
	if transport == "netsim" {
		client, server := netsim.StreamPair()
		go func() {
			defer server.Close()
			errc <- srv.ServeConn(server)
		}()
		return client, errc
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, aerr := ln.Accept()
		if aerr != nil {
			errc <- aerr
			return
		}
		defer conn.Close()
		errc <- srv.ServeConn(conn)
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return client, errc
}

func closeWriteEnd(t *testing.T, conn net.Conn) {
	t.Helper()
	cw, ok := conn.(interface{ CloseWrite() error })
	if !ok {
		t.Fatalf("%T does not support CloseWrite", conn)
	}
	if err := cw.CloseWrite(); err != nil {
		t.Fatal(err)
	}
}

// negotiateOnce drives one full Figure 4 exchange from the client end,
// advertising the given wire version.
func negotiateOnce(t *testing.T, c *inp.Conn, advert int) {
	t.Helper()
	var initRep inp.InitRep
	if err := c.Call(inp.MsgInitReq, inp.InitReq{AppID: "webapp", WireVersion: advert}, inp.MsgInitRep, &initRep); err != nil {
		t.Fatalf("INIT: %v", err)
	}
	if !initRep.OK {
		t.Fatalf("INIT refused: %s", initRep.Reason)
	}
	var tmpl inp.CliMetaReq
	if err := c.RecvInto(inp.MsgCliMetaReq, &tmpl); err != nil {
		t.Fatalf("CLI_META_REQ: %v", err)
	}
	env := desktopEnv()
	var padRep inp.PADMetaRep
	if err := c.Call(inp.MsgCliMetaRep,
		inp.CliMetaRep{Dev: env.Dev, Ntwk: env.Ntwk, SessionRequests: 75},
		inp.MsgPADMetaRep, &padRep); err != nil {
		t.Fatalf("metadata exchange: %v", err)
	}
	if len(padRep.PADs) == 0 {
		t.Fatal("negotiated zero PADs")
	}
}

func waitServeConn(t *testing.T, errc chan error) error {
	t.Helper()
	select {
	case err := <-errc:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn did not return")
		return nil
	}
}

// renderInitFrame builds the wire bytes of an INIT_REQ frame with the
// given sequence number and advertised wire version.
func renderInitFrame(t *testing.T, seq uint32, advert int) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := inp.NewFrameWriter(&buf)
	if err := fw.WriteMessage(inp.Header{Version: inp.Version2, Type: inp.MsgInitReq, Seq: seq}, inp.InitReq{AppID: "webapp", WireVersion: advert}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeConnCleanEOFAtSessionBoundary: two back-to-back negotiations
// on one connection (the persistent-conn case), then a half-close at the
// boundary. ServeConn must report a clean nil.
func TestServeConnCleanEOFAtSessionBoundary(t *testing.T) {
	for _, tc := range boundaryMatrix {
		t.Run(tc.transport+"/"+advertName(tc.advert), func(t *testing.T) {
			srv, err := NewServer(newTestProxy(t), 4, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			conn, errc := startServeConn(t, tc.transport, srv)
			defer conn.Close()
			c := inp.NewConn(conn)
			negotiateOnce(t, c, tc.advert)
			negotiateOnce(t, c, tc.advert) // re-negotiation on the same conn
			closeWriteEnd(t, conn)
			if err := waitServeConn(t, errc); err != nil {
				t.Fatalf("clean boundary EOF => %v, want nil", err)
			}
		})
	}
}

// TestServeConnEOFBeforeFirstMessage: a connection that closes without a
// single frame is an error, not a clean session.
func TestServeConnEOFBeforeFirstMessage(t *testing.T) {
	for _, tc := range boundaryMatrix {
		t.Run(tc.transport, func(t *testing.T) {
			srv, err := NewServer(newTestProxy(t), 4, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			conn, errc := startServeConn(t, tc.transport, srv)
			defer conn.Close()
			closeWriteEnd(t, conn)
			err = waitServeConn(t, errc)
			if err == nil || !strings.Contains(err.Error(), "reading first message") {
				t.Fatalf("EOF before first message => %v, want reading-first-message error", err)
			}
		})
	}
}

// TestServeConnEOFMidHeader: a partial header after a completed session
// is a protocol error, not a boundary.
func TestServeConnEOFMidHeader(t *testing.T) {
	for _, tc := range boundaryMatrix {
		t.Run(tc.transport+"/"+advertName(tc.advert), func(t *testing.T) {
			srv, err := NewServer(newTestProxy(t), 4, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			conn, errc := startServeConn(t, tc.transport, srv)
			defer conn.Close()
			c := inp.NewConn(conn)
			negotiateOnce(t, c, tc.advert)
			frame := renderInitFrame(t, 3, tc.advert)
			if _, err := conn.Write(frame[:7]); err != nil {
				t.Fatal(err)
			}
			closeWriteEnd(t, conn)
			err = waitServeConn(t, errc)
			if err == nil || !strings.Contains(err.Error(), "reading next session") {
				t.Fatalf("EOF mid-header => %v, want reading-next-session error", err)
			}
		})
	}
}

// TestServeConnEOFMidBody: a complete header whose body never finishes
// is a protocol error.
func TestServeConnEOFMidBody(t *testing.T) {
	for _, tc := range boundaryMatrix {
		t.Run(tc.transport+"/"+advertName(tc.advert), func(t *testing.T) {
			srv, err := NewServer(newTestProxy(t), 4, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			conn, errc := startServeConn(t, tc.transport, srv)
			defer conn.Close()
			c := inp.NewConn(conn)
			negotiateOnce(t, c, tc.advert)
			frame := renderInitFrame(t, 3, tc.advert)
			if _, err := conn.Write(frame[:len(frame)-3]); err != nil {
				t.Fatal(err)
			}
			closeWriteEnd(t, conn)
			err = waitServeConn(t, errc)
			if err == nil || !strings.Contains(err.Error(), "reading next session") {
				t.Fatalf("EOF mid-body => %v, want reading-next-session error", err)
			}
		})
	}
}
