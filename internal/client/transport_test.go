package client

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"fractal/internal/cdn"
	"fractal/internal/core"
	"fractal/internal/inp"
	"fractal/internal/mobilecode"
	"fractal/internal/netsim"
)

// startPADServer publishes the builtin modules on a TCP PAD server.
func startPADServer(t *testing.T, idle time.Duration) (addr string, mods []*mobilecode.Module, shutdown func()) {
	t.Helper()
	signer, err := mobilecode.NewSigner("pad-operator")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range mobilecode.BuiltinSpecs() {
		m, err := mobilecode.BuildModule(spec, "1.0", signer)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, m)
	}
	store := cdn.NewOrigin()
	for _, m := range mods {
		packed, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Publish("/pads/"+m.ID, packed); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := cdn.NewPADServer(store, 8, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if idle > 0 {
		srv.SetIdleTimeout(idle)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return ln.Addr().String(), mods, func() {
		_ = srv.Close()
		if err := <-done; err != nil {
			t.Errorf("pad server: %v", err)
		}
	}
}

func TestTCPPADFetcherRoundTrip(t *testing.T) {
	addr, mods, shutdown := startPADServer(t, 0)
	defer shutdown()
	f := &TCPPADFetcher{Addr: addr, sleep: noWait(t)}
	want := mods[0]
	got, err := f.FetchPAD(core.PADMeta{ID: want.ID, URL: "/pads/" + want.ID})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := want.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, packed) {
		t.Fatal("fetched module bytes differ from published")
	}
	// URL defaulting from PAD id.
	if _, err := f.FetchPAD(core.PADMeta{ID: want.ID}); err != nil {
		t.Fatalf("fetch by id alone failed: %v", err)
	}
	// Missing PAD is an in-band error, returned without a retry;
	// session-level fetches still work.
	if _, err := f.FetchPAD(core.PADMeta{ID: "pad-ghost", URL: "/pads/pad-ghost"}); err == nil {
		t.Fatal("missing PAD fetched")
	}
	if _, err := f.FetchPAD(core.PADMeta{ID: want.ID, URL: "/pads/" + want.ID}); err != nil {
		t.Fatalf("fetch after error failed: %v", err)
	}
}

func TestTCPPADFetcherBadAddress(t *testing.T) {
	f := &TCPPADFetcher{Addr: "127.0.0.1:1", sleep: skipWait}
	_, err := f.FetchPAD(core.PADMeta{ID: "x"})
	if err == nil || !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("fetch against dead address = %v, want failure after 3 attempts", err)
	}
}

func TestPADServerIdleTimeoutDropsSlowloris(t *testing.T) {
	addr, _, shutdown := startPADServer(t, 150*time.Millisecond)
	defer shutdown()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing; the server must close the connection.
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 1)
	_, err = conn.Read(buf)
	if err == nil {
		t.Fatal("server kept an idle connection open past the timeout")
	}
	if strings.Contains(err.Error(), "i/o timeout") {
		t.Fatal("server never closed the idle connection (client read timed out)")
	}
}

// TestCDNFetcherRecordsRetrievals: the fetcher keeps nothing per fetch;
// its retrievals are recorded by the edge it reaches — a miss that fills
// from the origin, then a hit.
func TestCDNFetcherRecordsRetrievals(t *testing.T) {
	topo, err := cdn.DefaultTopology(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Origin().Publish("/pads/x", bytes.Repeat([]byte("x"), 2048)); err != nil {
		t.Fatal(err)
	}
	home := topo.Edges()[0] // edge-00, region-0's own
	f := &CDNFetcher{CDN: topo, Region: "region-0", Link: netsim.WLAN}
	for range 2 {
		if _, err := f.FetchPAD(core.PADMeta{ID: "x", URL: "/pads/x"}); err != nil {
			t.Fatal(err)
		}
	}
	if st := home.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("home edge stats = %+v, want one miss then one hit", st)
	}
}

func TestCDNFetcherSurvivesEdgeFailure(t *testing.T) {
	topo, err := cdn.DefaultTopology(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Origin().Publish("/pads/x", []byte("module")); err != nil {
		t.Fatal(err)
	}
	home := topo.Edges()[0] // edge-00, region-0's own
	home.SetFailed(true)
	f := &CDNFetcher{CDN: topo, Region: "region-0", Link: netsim.WLAN}
	got, err := f.FetchPAD(core.PADMeta{ID: "x", URL: "/pads/x"})
	if err != nil {
		t.Fatalf("fetch with failed home edge: %v", err)
	}
	if string(got) != "module" {
		t.Fatal("failover fetched wrong bytes")
	}
	if st := home.Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("failed edge served the retrieval: %+v", st)
	}
}

// startStallServer accepts one connection, signals once the request
// header has arrived, then swallows everything without ever replying —
// the pathological peer a session must survive.
func startStallServer(t *testing.T) (addr string, reqArrived chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	reqArrived = make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		hdr := make([]byte, 16)
		if _, err := io.ReadFull(conn, hdr); err != nil {
			return
		}
		close(reqArrived)
		_, _ = io.Copy(io.Discard, conn)
	}()
	return ln.Addr().String(), reqArrived
}

// TestAppSessionCloseUnblocksStalledCall is the regression test for the
// lock split: with a single mutex held across the INP round trip, a
// stalled server left Close and Broken parked behind the in-flight
// exchange forever. Now Broken answers while the call is mid-stall, and
// Close tears down the conn, which fails the blocked call promptly.
func TestAppSessionCloseUnblocksStalledCall(t *testing.T) {
	addr, reqArrived := startStallServer(t)
	s, err := DialAppSession(addr, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	callErr := make(chan error, 1)
	go func() {
		_, err := s.FetchContent(inp.AppReq{AppID: "webapp", Resource: "page-1"})
		callErr <- err
	}()
	select {
	case <-reqArrived:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the stall server")
	}

	brokenDone := make(chan bool, 1)
	go func() { brokenDone <- s.isBroken() }()
	select {
	case b := <-brokenDone:
		if b {
			t.Error("session reported broken before any failure")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("isBroken() blocked behind a stalled exchange")
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close during stalled exchange: %v", err)
	}
	select {
	case err := <-callErr:
		if err == nil {
			t.Fatal("stalled FetchContent returned success after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the stalled FetchContent")
	}
}

// TestAppSessionUseAfterClose pins the closed-session contract: calls
// after Close fail with a "session closed" error (they must not redial
// and resurrect the session), and Close is idempotent.
func TestAppSessionUseAfterClose(t *testing.T) {
	addr, _ := startStallServer(t)
	s, err := DialAppSession(addr, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = s.FetchContent(inp.AppReq{AppID: "webapp", Resource: "page-1"})
	if err == nil || !strings.Contains(err.Error(), "session closed") {
		t.Fatalf("FetchContent after Close = %v, want session-closed error", err)
	}
	if s.redialCount() != 0 {
		t.Fatal("closed session redialed")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
