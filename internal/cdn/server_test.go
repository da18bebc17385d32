package cdn

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"fractal/internal/inp"
	"fractal/internal/netsim"
)

func startTestPADServer(t *testing.T) (addr string, store *Origin, shutdown func()) {
	t.Helper()
	store = NewOrigin()
	if err := store.Publish("/pads/pad-x", bytes.Repeat([]byte("m"), 4096)); err != nil {
		t.Fatal(err)
	}
	srv, err := NewPADServer(store, 8, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return ln.Addr().String(), store, func() {
		_ = srv.Close()
		if err := <-done; err != nil {
			t.Errorf("pad server: %v", err)
		}
	}
}

func TestPADServerSession(t *testing.T) {
	addr, store, shutdown := startTestPADServer(t)
	defer shutdown()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := inp.NewConn(conn)
	var rep inp.PADDownloadRep
	// Download by explicit URL.
	if err := c.Call(inp.MsgPADDownloadReq, inp.PADDownloadReq{PADID: "pad-x", URL: "/pads/pad-x"}, inp.MsgPADDownloadRep, &rep); err != nil {
		t.Fatal(err)
	}
	want, err := store.Get("/pads/pad-x")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep.Module, want) {
		t.Fatal("downloaded bytes differ")
	}
	// Download by id (URL defaulting) on the same session.
	if err := c.Call(inp.MsgPADDownloadReq, inp.PADDownloadReq{PADID: "pad-x"}, inp.MsgPADDownloadRep, &rep); err != nil {
		t.Fatal(err)
	}
	// Missing object: in-band error, session continues.
	err = c.Call(inp.MsgPADDownloadReq, inp.PADDownloadReq{PADID: "ghost"}, inp.MsgPADDownloadRep, &rep)
	if err == nil || !strings.Contains(err.Error(), "peer error") {
		t.Fatalf("err = %v, want in-band error", err)
	}
	if err := c.Call(inp.MsgPADDownloadReq, inp.PADDownloadReq{PADID: "pad-x"}, inp.MsgPADDownloadRep, &rep); err != nil {
		t.Fatalf("session did not survive error: %v", err)
	}
}

func TestPADServerGarbageConnection(t *testing.T) {
	addr, _, shutdown := startTestPADServer(t)
	defer shutdown()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("not INP at all")); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// Server survives; a clean session still works.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	c := inp.NewConn(conn2)
	var rep inp.PADDownloadRep
	if err := c.Call(inp.MsgPADDownloadReq, inp.PADDownloadReq{PADID: "pad-x"}, inp.MsgPADDownloadRep, &rep); err != nil {
		t.Fatal(err)
	}
}

func TestNewPADServerValidation(t *testing.T) {
	if _, err := NewPADServer(nil, 1, nil); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := NewPADServer(NewOrigin(), 0, nil); err == nil {
		t.Error("zero concurrency accepted")
	}
}

func TestPADServerDoubleServeRejected(t *testing.T) {
	srv, err := NewPADServer(NewOrigin(), 1, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := srv.Serve(ln); err == nil {
		t.Fatal("Serve after Close accepted")
	}
}

func TestSharedServerBaseRTTAccounting(t *testing.T) {
	srv := netsim.SharedServer{Name: "s", UplinkKbps: 1e6, Rho: 0.8, BaseRTT: 25 * time.Millisecond}
	tt, err := srv.RetrievalTime(0, 1, netsim.LAN)
	if err != nil {
		t.Fatal(err)
	}
	if tt < 25*time.Millisecond {
		t.Fatalf("zero-byte retrieval %v below base RTT", tt)
	}
}
