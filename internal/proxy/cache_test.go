package proxy

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fractal/internal/core"
)

// cacheKey renders the canonical key of app's i-th desktop environment.
func cacheKey(app string, i int) string {
	env := desktopEnv()
	env.Dev.CPUMHz = float64(1000 + i)
	return core.CacheKey{AppID: app, Principal: "tester", Dev: env.Dev, Ntwk: env.Ntwk}.String()
}

func newTestCache(t *testing.T, capacity int) *adaptCache {
	t.Helper()
	c, err := newAdaptCache(capacity)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// cacheLen reads the number of cached negotiations under the proxy lock.
func cacheLen(p *Proxy) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.cache.entries)
}

func TestAdaptationCacheBasics(t *testing.T) {
	c := newTestCache(t, 2)
	k1 := cacheKey("app", 1)
	if _, ok := c.get(k1); ok {
		t.Fatal("empty cache hit")
	}
	c.put(k1, "app", []core.PADMeta{{ID: "p1", Protocol: "x"}})
	got, ok := c.get(k1)
	if !ok || len(got) != 1 || got[0].ID != "p1" {
		t.Fatalf("get = %v, %v", got, ok)
	}

	// Every caller gets its own copy: mutating a negotiation result must
	// not corrupt the cached one.
	p := newTestProxy(t)
	first, err := p.Negotiate("webapp", desktopEnv(), 75)
	if err != nil {
		t.Fatal(err)
	}
	first[0].ID = "corrupted"
	again, err := p.Negotiate("webapp", desktopEnv(), 75)
	if err != nil {
		t.Fatal(err)
	}
	if again[0].ID != "pad-direct" || p.Stats().CacheHits != 1 {
		t.Fatalf("cached result aliased to a caller's slice: %s (hits %d)", again[0].ID, p.Stats().CacheHits)
	}
}

func TestAdaptationCacheLRUEviction(t *testing.T) {
	c := newTestCache(t, 2)
	c.put(cacheKey("app", 1), "app", nil)
	c.put(cacheKey("app", 2), "app", nil)
	c.get(cacheKey("app", 1)) // touch 1 so 2 is LRU
	c.put(cacheKey("app", 3), "app", nil)
	if _, ok := c.get(cacheKey("app", 2)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.get(cacheKey("app", 1)); !ok {
		t.Fatal("recently used entry evicted")
	}
	if c.evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.evictions)
	}

	// Evicted entries are gone for invalidation too: it reports only
	// live ones.
	c = newTestCache(t, 4)
	for i := 0; i < 100; i++ {
		c.put(cacheKey("app", i), "app", nil)
	}
	if len(c.entries) != 4 || c.order.Len() != 4 || c.evictions != 96 {
		t.Fatalf("after 100 puts: %d entries, %d listed, %d evictions; want 4, 4, 96", len(c.entries), c.order.Len(), c.evictions)
	}
	if n := c.invalidate("app"); n != 4 {
		t.Fatalf("invalidate dropped %d, want 4", n)
	}

	// Churn through a proxy: 4× capacity distinct environments over three
	// rounds with a topology push between rounds. The cache stays bounded
	// at rest and the cache and proxy counters agree after every round.
	const capacity = 8
	p, err := New(testModel(t), capacity)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := p.PushAppMeta(testApp()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4*capacity; i++ {
			env := desktopEnv()
			env.Dev.CPUMHz = float64(1000 + i)
			if _, err := p.Negotiate("webapp", env, 75); err != nil {
				t.Fatal(err)
			}
		}
		if n := cacheLen(p); n > capacity {
			t.Fatalf("round %d: %d cached negotiations, capacity %d", round, n, capacity)
		}
		checkCacheCounters(t, p)
	}
	// Every round misses all 32 keys (the push dropped the last round's
	// 8), and each round evicts all but the last 8 it stores.
	if st, cs := p.Stats(), p.CacheStats(); st.Searches != 3*4*capacity || cs.Evictions != 3*3*capacity {
		t.Fatalf("Searches = %d, Evictions = %d; want %d, %d", st.Searches, cs.Evictions, 3*4*capacity, 3*3*capacity)
	}
}

func TestAdaptationCacheInvalidate(t *testing.T) {
	c := newTestCache(t, 10)
	c.put(cacheKey("app-a", 1), "app-a", nil)
	c.put(cacheKey("app-b", 1), "app-b", nil)
	if n := c.invalidate("app-a"); n != 1 {
		t.Fatalf("invalidated %d entries, want 1", n)
	}
	if len(c.entries) != 1 || c.order.Len() != 1 {
		t.Fatalf("cache holds %d entries (%d listed) after invalidate, want 1", len(c.entries), c.order.Len())
	}
	if _, ok := c.get(cacheKey("app-b", 1)); !ok {
		t.Fatal("unrelated app entry dropped")
	}
}

// TestAdaptationCacheInterleavedPutInvalidateGet interleaves put,
// invalidate and get across two applications: an invalidated entry never
// leaks, a live one is never dropped, and a re-put key is counted once.
func TestAdaptationCacheInterleavedPutInvalidateGet(t *testing.T) {
	c := newTestCache(t, 10)
	padsA := []core.PADMeta{{ID: "a", Protocol: "gzip"}}
	padsB := []core.PADMeta{{ID: "b", Protocol: "bitmap"}}

	c.put(cacheKey("app-a", 1), "app-a", padsA)
	c.put(cacheKey("app-b", 1), "app-b", padsB)
	c.put(cacheKey("app-a", 2), "app-a", padsA)

	if dropped := c.invalidate("app-a"); dropped != 2 {
		t.Fatalf("invalidate(app-a) dropped %d, want 2", dropped)
	}
	if _, ok := c.get(cacheKey("app-a", 1)); ok {
		t.Fatal("invalidated app-a entry survived")
	}
	if got, ok := c.get(cacheKey("app-b", 1)); !ok || got[0].ID != "b" {
		t.Fatal("app-b entry lost by app-a invalidation")
	}

	// Re-put after invalidation, update in place, then invalidate again.
	c.put(cacheKey("app-a", 1), "app-a", padsA)
	c.put(cacheKey("app-a", 1), "app-a", padsB) // overwrite same key
	if got, ok := c.get(cacheKey("app-a", 1)); !ok || got[0].ID != "b" {
		t.Fatal("overwrite lost")
	}
	if dropped := c.invalidate("app-a"); dropped != 1 {
		t.Fatalf("second invalidate dropped %d, want 1 (an overwrite is one entry)", dropped)
	}
	if dropped := c.invalidate("app-a"); dropped != 0 {
		t.Fatalf("empty invalidate dropped %d, want 0", dropped)
	}
	if len(c.entries) != 1 || c.order.Len() != 1 {
		t.Fatalf("cache holds %d entries (%d listed), want 1 (only app-b left)", len(c.entries), c.order.Len())
	}
}

func TestAdaptationCacheValidation(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		if _, err := newAdaptCache(capacity); err == nil {
			t.Errorf("capacity %d accepted", capacity)
		}
	}
}

// TestAdaptationCacheConcurrentMixedOps drives negotiations, topology
// pushes and policy changes from several goroutines at once (run under
// -race in CI) through a small cache, then checks the cache is bounded,
// the counters agree, and a quiet negotiation sees the last state.
func TestAdaptationCacheConcurrentMixedOps(t *testing.T) {
	const capacity = 16
	p, err := New(testModel(t), capacity)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.PushAppMeta(testApp()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				env := desktopEnv()
				env.Dev.CPUMHz = float64(1000 + (w*7+i)%50)
				switch {
				case i%50 == 49 && w == 0:
					if err := p.PushAppMeta(testApp()); err != nil {
						t.Error(err)
					}
				case i%50 == 49 && w == 1:
					p.SetAuthorizer(AuthorizerFunc(func(principal, appID string, pad core.PADMeta) bool {
						return pad.ID != "pad-direct"
					}))
				default:
					if _, err := p.NegotiateFor(fmt.Sprint("who-", w%2), "webapp", env, 75); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := cacheLen(p); n > capacity {
		t.Fatalf("%d cached negotiations exceed capacity %d", n, capacity)
	}
	checkCacheCounters(t, p)
	pads, err := p.Negotiate("webapp", desktopEnv(), 75)
	if err != nil {
		t.Fatal(err)
	}
	if pads[0].ID == "pad-direct" {
		t.Fatal("a negotiation after the last policy change was served a denied PAD")
	}
}

// TestPushDuringSearchServesNewTopology is the regression test for a
// search outliving the topology it read: a blocking authorizer holds the
// first search while a push removes pad-direct and returns, and a second
// negotiation begins. Once the search is released, neither the in-flight
// callers nor a later negotiation may be served the replaced topology.
func TestPushDuringSearchServesNewTopology(t *testing.T) {
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
	results := make(chan []core.PADMeta, 2)
	negotiate := func() {
		pads, err := p.Negotiate("webapp", desktopEnv(), 75)
		if err != nil {
			t.Error(err)
		}
		results <- pads
	}
	go negotiate()
	<-entered // the first search is now blocked on the old topology

	app := testApp()
	app.PADs = app.PADs[1:] // drop pad-direct
	if err := p.PushAppMeta(app); err != nil {
		t.Fatal(err)
	}
	go negotiate() // begins after the push returned
	// Give it time to join the in-flight search. Whether it joined or
	// not, it must not be served pad-direct.
	time.Sleep(50 * time.Millisecond)
	close(release)
	for i := 0; i < 2; i++ {
		if pads := <-results; len(pads) > 0 && pads[0].ID == "pad-direct" {
			t.Errorf("in-flight negotiation %d served pad-direct from the replaced topology", i)
		}
	}
	pads, err := p.Negotiate("webapp", desktopEnv(), 75)
	if err != nil {
		t.Fatal(err)
	}
	if pads[0].ID == "pad-direct" {
		t.Fatal("a negotiation after the push was served pad-direct from the replaced topology")
	}
	checkCacheCounters(t, p)
}

// TestSetAuthorizerDropsCachedNegotiations pins that installing a policy
// applies to environments already in the adaptation cache.
func TestSetAuthorizerDropsCachedNegotiations(t *testing.T) {
	p := newTestProxy(t)
	pads, err := p.Negotiate("webapp", desktopEnv(), 75)
	if err != nil {
		t.Fatal(err)
	}
	if pads[0].ID != "pad-direct" {
		t.Fatalf("desktop negotiated %s, want pad-direct", pads[0].ID)
	}
	p.SetAuthorizer(AuthorizerFunc(func(principal, appID string, pad core.PADMeta) bool {
		return pad.ID != "pad-direct"
	}))
	pads, err = p.Negotiate("webapp", desktopEnv(), 75)
	if err != nil {
		t.Fatal(err)
	}
	if pads[0].ID == "pad-direct" {
		t.Fatal("a cached negotiation served a PAD the new policy denies")
	}
}

// TestNegotiateCacheKeysOnSessionLength: the search amortizes the PAD
// download over the session length, so a short and a long session may
// choose different paths, and a warm proxy must answer each with its own
// choice whichever asked first. With pad-bitmap made 400,000 B, a PDA
// amortizing it over 75 requests still takes bitmap, but one request
// cannot pay for it.
func TestNegotiateCacheKeysOnSessionLength(t *testing.T) {
	app := testApp()
	for i := range app.PADs {
		if app.PADs[i].ID == "pad-bitmap" {
			app.PADs[i].Size = 400_000
		}
	}
	proxyFor := func() *Proxy {
		p, err := New(testModel(t), 128)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.PushAppMeta(app); err != nil {
			t.Fatal(err)
		}
		return p
	}
	choose := func(p *Proxy, reqs int) string {
		pads, err := p.Negotiate("webapp", pdaEnv(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		return pads[0].ID
	}
	want := map[int]string{1: choose(proxyFor(), 1), 75: choose(proxyFor(), 75)}
	if want[1] == want[75] {
		t.Fatalf("fresh proxies choose %s for both session lengths; the fixture no longer separates them", want[1])
	}
	for _, order := range [][]int{{1, 75}, {75, 1}} {
		p := proxyFor()
		for round := 0; round < 2; round++ { // the second round is served from the cache
			for _, reqs := range order {
				if got := choose(p, reqs); got != want[reqs] {
					t.Errorf("order %v round %d: %d-request PDA got %s, want %s", order, round, reqs, got, want[reqs])
				}
			}
		}
		if st := p.Stats(); st.Searches != 2 || st.CacheHits != 2 {
			t.Errorf("order %v: stats %+v, want 2 searches and 2 cache hits", order, st)
		}
	}
}
