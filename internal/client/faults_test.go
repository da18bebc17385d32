package client

import (
	"bytes"
	"errors"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"fractal/internal/appserver"
	"fractal/internal/core"
	"fractal/internal/faultnet"
	"fractal/internal/inp"
	"fractal/internal/netsim"
	"fractal/internal/proxy"
)

// The fault suite drives the shipped TCP client plane through faultnet's
// deterministic injector and asserts the contract of the hardening work:
// every session either completes (the transports retry on fresh
// connections), fails fast with a typed error, or degrades to the Direct
// builtin — and a fixed fault seed reproduces identical stats run after
// run. Nothing here may hang: go test runs the suite under a finite
// -timeout in CI, and no test sleeps a real backoff.

// faultCallTimeout bounds each read/write in the suite: long enough for a
// loopback exchange, short enough that an injected stall fails fast.
const faultCallTimeout = 250 * time.Millisecond

func startProxyTCP(t *testing.T, w *world) string {
	t.Helper()
	srv, err := proxy.NewServer(w.proxy, 8, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close(); <-done })
	return ln.Addr().String()
}

func startAppTCP(t *testing.T, w *world) string {
	t.Helper()
	srv, err := appserver.NewINPServer(w.app, 8, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close(); <-done })
	return ln.Addr().String()
}

func TestNegotiationRefusalIsTypedAndRetried(t *testing.T) {
	w := buildWorld(t)
	addr := startProxyTCP(t, w)
	env := pdaConfig(w.trust).Env

	// Every dial refused: fails after the last attempt, typed.
	refuse := faultnet.Fault{Kind: faultnet.Refuse}
	down := &faultnet.Dialer{Schedule: faultnet.NewSchedule(1, refuse, refuse, refuse)}
	neg := &TCPNegotiator{Addr: addr, CallTimeout: faultCallTimeout, Dial: down.Dial, sleep: skipWait}
	if _, err := neg.Negotiate("webapp", env, 75); !errors.Is(err, faultnet.ErrRefused) {
		t.Fatalf("refused dial err = %v, want ErrRefused", err)
	}

	// One refusal, then a clean dial: the negotiator recovers by itself.
	sched := faultnet.NewSchedule(1, refuse)
	d := &faultnet.Dialer{Schedule: sched}
	var ws waits
	neg = &TCPNegotiator{Addr: addr, CallTimeout: faultCallTimeout, Dial: d.Dial, sleep: ws.sleep}
	pads, err := neg.Negotiate("webapp", env, 75)
	if err != nil {
		t.Fatalf("negotiation did not survive one refusal: %v", err)
	}
	if len(pads) == 0 {
		t.Fatal("no PADs negotiated")
	}
	if n := len(ws); n != 1 {
		t.Fatalf("backoff waits = %d, want 1", n)
	}
	if got := sched.Counts(); got["refuse"] != 1 || got["none"] != 1 {
		t.Fatalf("schedule counts = %v", got)
	}
}

func TestNegotiationStallFailsFastThenRetries(t *testing.T) {
	w := buildWorld(t)
	addr := startProxyTCP(t, w)
	env := pdaConfig(w.trust).Env
	stall := faultnet.Fault{Kind: faultnet.StallRead}

	// A proxy that stalls every connection costs one deadline per
	// attempt, then fails typed.
	d := &faultnet.Dialer{Schedule: faultnet.NewSchedule(2, stall, stall, stall)}
	neg := &TCPNegotiator{Addr: addr, CallTimeout: faultCallTimeout, Dial: d.Dial, sleep: skipWait}
	start := time.Now()
	_, err := neg.Negotiate("webapp", env, 75)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled negotiation err = %v, want deadline exceeded", err)
	}
	if el := time.Since(start); el > 10*retryAttempts*faultCallTimeout {
		t.Fatalf("stalled negotiation took %v, deadline did not bound it", el)
	}

	// One stall, then a clean connection: the retry completes.
	sched := faultnet.NewSchedule(2, stall)
	d = &faultnet.Dialer{Schedule: sched}
	neg = &TCPNegotiator{Addr: addr, CallTimeout: faultCallTimeout, Dial: d.Dial, sleep: skipWait}
	if _, err := neg.Negotiate("webapp", env, 75); err != nil {
		t.Fatalf("retry after stall: %v", err)
	}
	if got := sched.Counts(); got["stall-read"] != 1 || got["none"] != 1 {
		t.Fatalf("schedule counts = %v", got)
	}
}

// TestAppSessionTruncationRedial is the regression test for the stream
// desync bug: a mid-frame truncation used to leave the session reading
// from an unknown stream position; now it breaks the session, the call
// fails typed, and the next call transparently redials.
func TestAppSessionTruncationRedial(t *testing.T) {
	w := buildWorld(t)
	addr := startAppTCP(t, w)

	// Cut the inbound stream 20 bytes in: past the 16-byte INP header of
	// the first reply, mid-body — the worst-case desync.
	sched := faultnet.NewSchedule(3, faultnet.Fault{Kind: faultnet.Truncate, After: 20}, faultnet.Fault{})
	d := &faultnet.Dialer{Schedule: sched}
	session, err := DialAppSession(addr, SessionConfig{CallTimeout: faultCallTimeout, Dial: d.Dial})
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()

	req := inp.AppReq{AppID: "webapp", Resource: "page-000", ProtocolIDs: []string{"pad-direct"}}
	_, err = session.FetchContent(req)
	if !errors.Is(err, ErrSessionBroken) {
		t.Fatalf("truncated session err = %v, want ErrSessionBroken", err)
	}
	if !session.Broken() {
		t.Fatal("session not marked broken after mid-frame truncation")
	}
	rep, err := session.FetchContent(req)
	if err != nil {
		t.Fatalf("redial after truncation failed: %v", err)
	}
	if rep.Resource != "page-000" || len(rep.Payload) == 0 {
		t.Fatalf("post-redial reply = %+v", rep)
	}
	if session.Redials() != 1 {
		t.Fatalf("redials = %d, want 1", session.Redials())
	}
	// An in-band error still leaves the (fresh) stream healthy.
	if _, err := session.FetchContent(inp.AppReq{AppID: "webapp", Resource: "page-404", ProtocolIDs: []string{"pad-direct"}}); err == nil {
		t.Fatal("missing resource served")
	}
	if session.Broken() {
		t.Fatal("in-band peer error broke the session")
	}
}

func TestPADDownloadResetFailsTypedThenFailsOver(t *testing.T) {
	addr, mods, shutdown := startPADServer(t, 0)
	defer shutdown()
	meta := core.PADMeta{ID: mods[0].ID, URL: "/pads/" + mods[0].ID}
	reset := faultnet.Fault{Kind: faultnet.Reset, After: 4}

	dead := &faultnet.Dialer{Schedule: faultnet.NewSchedule(4, reset, reset, reset)}
	faulty := &TCPPADFetcher{Addr: addr, CallTimeout: faultCallTimeout, Dial: dead.Dial, sleep: skipWait}
	if _, err := faulty.FetchPAD(meta); !errors.Is(err, faultnet.ErrReset) {
		t.Fatalf("reset download err = %v, want ErrReset", err)
	}

	// A reset connection fails over to a fresh one on the next attempt.
	d := &faultnet.Dialer{Schedule: faultnet.NewSchedule(4, reset)}
	f := &TCPPADFetcher{Addr: addr, CallTimeout: faultCallTimeout, Dial: d.Dial, sleep: skipWait}
	got, err := f.FetchPAD(meta)
	if err != nil {
		t.Fatalf("download after reset: %v", err)
	}
	packed, err := mods[0].Pack()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, packed) {
		t.Fatal("retried download returned wrong module bytes")
	}
}

func TestNegotiationCorruptionDetectedThenRetried(t *testing.T) {
	w := buildWorld(t)
	addr := startProxyTCP(t, w)

	// Corrupt the first four inbound bytes: the INP magic of the first
	// reply frame. The framing layer must reject it, never deliver it.
	sched := faultnet.NewSchedule(5, faultnet.Fault{Kind: faultnet.Corrupt, Count: 4})
	d := &faultnet.Dialer{Schedule: sched}
	var ws waits
	neg := &TCPNegotiator{Addr: addr, CallTimeout: faultCallTimeout, Dial: d.Dial, sleep: ws.sleep}
	pads, err := neg.Negotiate("webapp", pdaConfig(w.trust).Env, 75)
	if err != nil {
		t.Fatalf("negotiation did not survive frame corruption: %v", err)
	}
	if len(pads) == 0 {
		t.Fatal("no PADs negotiated")
	}
	if n := len(ws); n != 1 {
		t.Fatalf("backoff waits = %d, want one retry", n)
	}
}

// TestClientDegradesWhenProxyUnreachable: the whole adaptation plane is
// down (every dial refused, retries exhausted), but the session still
// serves content through the locally shipped Direct module.
func TestClientDegradesWhenProxyUnreachable(t *testing.T) {
	w := buildWorld(t)
	addr := startProxyTCP(t, w)

	packed := buildFallbackDirect(t, w.trust)
	refuse := faultnet.Fault{Kind: faultnet.Refuse}
	sched := faultnet.NewSchedule(6, refuse, refuse, refuse)
	dead := &faultnet.Dialer{Schedule: sched}
	rn := &TCPNegotiator{Addr: addr, CallTimeout: faultCallTimeout, Dial: dead.Dial, sleep: skipWait}
	cfg := pdaConfig(w.trust)
	cfg.FallbackDirect = packed
	c, err := New(cfg, rn, w.fetcher("region-0", netsim.Bluetooth), w.app)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Request("webapp", "page-000")
	if err != nil {
		t.Fatalf("degraded request failed: %v", err)
	}
	if !bytes.Equal(got, w.v2.Pages[0].Bytes()) {
		t.Fatal("degraded session served wrong content")
	}
	st := c.Stats()
	if st.Degradations != 1 || st.Negotiations != 0 {
		t.Fatalf("stats = %+v, want one degradation and zero negotiations", st)
	}
	if got := sched.Counts(); got["refuse"] != 3 || got["none"] != 0 {
		t.Fatalf("schedule counts = %v, want every attempt refused", got)
	}
}

// TestFaultScheduleReproducesIdenticalStats runs the same faulty session
// twice from scratch — same world seeds, same fault schedule seed — and
// requires byte-identical client stats and fault counts: the determinism
// contract of the injector.
func TestFaultScheduleReproducesIdenticalStats(t *testing.T) {
	run := func() (Stats, map[string]int64) {
		w := buildWorld(t)
		addr := startProxyTCP(t, w)
		sched := faultnet.NewSchedule(7,
			faultnet.Fault{Kind: faultnet.Refuse},
			faultnet.Fault{Kind: faultnet.Corrupt, Count: 2},
			faultnet.Fault{},
		)
		d := &faultnet.Dialer{Schedule: sched}
		rn := &TCPNegotiator{Addr: addr, CallTimeout: faultCallTimeout, Dial: d.Dial, sleep: skipWait}
		c, err := New(pdaConfig(w.trust), rn, w.fetcher("region-0", netsim.Bluetooth), w.app)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []string{"page-000", "page-001", "page-000"} {
			if _, err := c.Request("webapp", res); err != nil {
				t.Fatalf("request %s: %v", res, err)
			}
		}
		return c.Stats(), sched.Counts()
	}
	stats1, counts1 := run()
	stats2, counts2 := run()
	if stats1 != stats2 {
		t.Fatalf("same fault seed, different stats:\n  run1 %+v\n  run2 %+v", stats1, stats2)
	}
	if !reflect.DeepEqual(counts1, counts2) {
		t.Fatalf("same fault seed, different fault counts: %v vs %v", counts1, counts2)
	}
}
