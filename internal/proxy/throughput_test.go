package proxy

import (
	"net"
	"sync"
	"testing"
	"time"

	"fractal/internal/core"
	"fractal/internal/inp"
)

// checkCacheCounters pins that the adaptation cache and the proxy count the
// same events: one cache outcome per negotiation (the singleflight
// leader's re-check is not a second lookup), and a cache miss exactly when
// the negotiation ran or joined a search.
func checkCacheCounters(t *testing.T, p *Proxy) {
	t.Helper()
	st, cs := p.Stats(), p.CacheStats()
	if cs.Hits+cs.Misses != st.Negotiations {
		t.Errorf("cache Hits(%d) + Misses(%d) = %d, want Negotiations = %d",
			cs.Hits, cs.Misses, cs.Hits+cs.Misses, st.Negotiations)
	}
	if cs.Misses != st.Searches+st.CollapsedSearches {
		t.Errorf("cache Misses = %d, want Searches(%d) + CollapsedSearches(%d)",
			cs.Misses, st.Searches, st.CollapsedSearches)
	}
}

// TestNegotiateSingleflightExactlyOneSearchPerKey is the cold-cache
// hammer (run under -race in CI): many goroutines negotiate a small set of
// unique cache keys concurrently, and the proxy must run exactly one path
// search per unique key — every other caller either joins the in-flight
// search or hits the cache the leader filled.
func TestNegotiateSingleflightExactlyOneSearchPerKey(t *testing.T) {
	p := newTestProxy(t)
	const (
		uniqueKeys = 8
		perKey     = 16
	)
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, uniqueKeys*perKey)
	for k := 0; k < uniqueKeys; k++ {
		env := desktopEnv()
		env.Dev.CPUMHz = float64(1000 + k) // distinct cache key per k
		for g := 0; g < perKey; g++ {
			wg.Add(1)
			go func(env core.Env) {
				defer wg.Done()
				<-start
				if _, err := p.Negotiate("webapp", env, 75); err != nil {
					errs <- err
				}
			}(env)
		}
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Searches != uniqueKeys {
		t.Errorf("Searches = %d, want exactly %d (one per unique key)", st.Searches, uniqueKeys)
	}
	if st.Negotiations != uniqueKeys*perKey {
		t.Errorf("Negotiations = %d, want %d", st.Negotiations, uniqueKeys*perKey)
	}
	if got := st.CacheHits + st.Searches + st.CollapsedSearches; got != st.Negotiations {
		t.Errorf("CacheHits(%d) + Searches(%d) + CollapsedSearches(%d) = %d, want Negotiations = %d",
			st.CacheHits, st.Searches, st.CollapsedSearches, got, st.Negotiations)
	}
	checkCacheCounters(t, p)
}

// TestNegotiateCollapsesConcurrentMisses pins that followers arriving while
// a search is in flight join it rather than queueing their own: a blocking
// authorizer holds the leader inside the search until every follower has
// reached NegotiateFor.
func TestNegotiateCollapsesConcurrentMisses(t *testing.T) {
	p := newTestProxy(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	p.SetAuthorizer(AuthorizerFunc(func(principal, appID string, pad core.PADMeta) bool {
		once.Do(func() {
			close(entered)
			<-release
		})
		return true
	}))
	const followers = 8
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := p.Negotiate("webapp", desktopEnv(), 75); err != nil {
			t.Error(err)
		}
	}()
	<-entered // the leader is now blocked mid-search
	var ready sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			if _, err := p.Negotiate("webapp", desktopEnv(), 75); err != nil {
				t.Error(err)
			}
		}()
	}
	ready.Wait()
	time.Sleep(100 * time.Millisecond) // let followers reach the singleflight
	close(release)
	wg.Wait()
	st := p.Stats()
	if st.Searches != 1 {
		t.Errorf("Searches = %d, want 1", st.Searches)
	}
	if st.CollapsedSearches < 1 {
		t.Errorf("CollapsedSearches = %d, want >= 1 (followers blocked behind the leader)", st.CollapsedSearches)
	}
	if got := st.CacheHits + st.Searches + st.CollapsedSearches; got != st.Negotiations {
		t.Errorf("counter invariant broken: %d hits + %d searches + %d collapsed != %d negotiations",
			st.CacheHits, st.Searches, st.CollapsedSearches, st.Negotiations)
	}
	checkCacheCounters(t, p)
}

// TestNegotiateStatsSequential pins the counter semantics on the simple
// paths: a cold negotiation is a Search, a repeat is a CacheHit.
func TestNegotiateStatsSequential(t *testing.T) {
	p := newTestProxy(t)
	if _, err := p.Negotiate("webapp", desktopEnv(), 75); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Searches != 1 || st.CacheHits != 0 || st.CollapsedSearches != 0 {
		t.Fatalf("after cold negotiation: %+v", st)
	}
	checkCacheCounters(t, p)
	if _, err := p.Negotiate("webapp", desktopEnv(), 75); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Searches != 1 || st.CacheHits != 1 {
		t.Fatalf("after warm negotiation: %+v", st)
	}
	checkCacheCounters(t, p)
}

// partialNegotiation opens a session and stops after receiving the
// CLI_META_REQ template, leaving the server goroutine blocked waiting for
// the client metadata. finish completes the exchange.
func partialNegotiation(t *testing.T, addr string) (finish func() error, abort func()) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := inp.NewConn(conn)
	var initRep inp.InitRep
	if err := c.Call(inp.MsgInitReq, inp.InitReq{AppID: "webapp"}, inp.MsgInitRep, &initRep); err != nil {
		conn.Close()
		t.Fatal(err)
	}
	var tmpl inp.CliMetaReq
	if err := c.RecvInto(inp.MsgCliMetaReq, &tmpl); err != nil {
		conn.Close()
		t.Fatal(err)
	}
	env := desktopEnv()
	return func() error {
		defer conn.Close()
		var padRep inp.PADMetaRep
		return c.Call(inp.MsgCliMetaRep, inp.CliMetaRep{Dev: env.Dev, Ntwk: env.Ntwk, SessionRequests: 75}, inp.MsgPADMetaRep, &padRep)
	}, func() { conn.Close() }
}

// TestServerCloseDrainsInFlightSessions is the regression test for Close
// returning while sessions were still running: Close must block until the
// in-flight negotiation completes.
func TestServerCloseDrainsInFlightSessions(t *testing.T) {
	p := newTestProxy(t)
	srv, err := NewServer(p, 4, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	finish, abort := partialNegotiation(t, ln.Addr().String())
	defer abort()

	closeDone := make(chan error, 1)
	go func() { closeDone <- srv.Close() }()

	select {
	case err := <-closeDone:
		t.Fatalf("Close returned (%v) while a session was still in flight", err)
	case <-time.After(100 * time.Millisecond):
		// Close is correctly blocked on the open session.
	}

	if err := finish(); err != nil {
		t.Fatalf("in-flight session failed to complete during shutdown: %v", err)
	}
	if err := <-closeDone; err != nil {
		t.Errorf("close: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("serve returned %v", err)
	}
}

// TestServerCloseUnblocksSemaphoreWait covers the second half of the
// shutdown bug: with the concurrency limit saturated, the accept loop sits
// blocked handing a new connection a semaphore slot; Close must unblock it
// (dropping the pending connection) instead of letting the connection be
// served after shutdown began.
func TestServerCloseUnblocksSemaphoreWait(t *testing.T) {
	p := newTestProxy(t)
	srv, err := NewServer(p, 1, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	// Session 1 occupies the only slot and stays in flight.
	finish, abort := partialNegotiation(t, ln.Addr().String())
	defer abort()

	// Session 2 is accepted but cannot get a slot.
	conn2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	time.Sleep(50 * time.Millisecond) // let the accept loop block on the semaphore

	closeDone := make(chan error, 1)
	go func() { closeDone <- srv.Close() }()

	// The pending connection must be dropped, not served.
	_ = conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn2.Read(make([]byte, 1)); err == nil {
		t.Error("pending connection was served after Close")
	}

	if err := finish(); err != nil {
		t.Fatalf("in-flight session failed during shutdown: %v", err)
	}
	if err := <-closeDone; err != nil {
		t.Errorf("close: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("serve returned %v", err)
	}
}
