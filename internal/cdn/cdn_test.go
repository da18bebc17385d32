package cdn

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"fractal/internal/netsim"
)

func TestLRUCacheBasics(t *testing.T) {
	c, err := newLRUCache(100)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("a", make([]byte, 40))
	c.Put("b", make([]byte, 40))
	if len(c.entries) != 2 || c.used != 80 {
		t.Fatalf("len=%d used=%d, want 2/80", len(c.entries), c.used)
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	// Inserting 40 more evicts the LRU entry, which is now b (a was
	// touched by Get).
	c.Put("c", make([]byte, 40))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be cached")
	}
}

func TestLRUCacheOversizedValueNotCached(t *testing.T) {
	c, err := newLRUCache(10)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("big", make([]byte, 11))
	if len(c.entries) != 0 {
		t.Fatal("oversized value was cached")
	}
}

func TestLRUCacheReplaceSameKey(t *testing.T) {
	c, err := newLRUCache(100)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("k", make([]byte, 30))
	c.Put("k", make([]byte, 50))
	if len(c.entries) != 1 || c.used != 50 {
		t.Fatalf("len=%d used=%d after replace, want 1/50", len(c.entries), c.used)
	}
}

func TestLRUCacheInvalidCapacity(t *testing.T) {
	if _, err := newLRUCache(0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

// Property: the cache never holds more than its capacity.
func TestLRUCacheCapacityInvariantProperty(t *testing.T) {
	c, err := newLRUCache(1000)
	if err != nil {
		t.Fatal(err)
	}
	f := func(keys []uint8, sizes []uint16) bool {
		for i, k := range keys {
			if i >= len(sizes) {
				break
			}
			c.Put(fmt.Sprintf("k%d", k%32), make([]byte, int(sizes[i])%1500))
			if c.used > 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func testOrigin(t testing.TB) *Origin {
	t.Helper()
	o, err := NewOrigin(netsim.SharedServer{Name: "origin", UplinkKbps: 10000, Rho: 0.8, BaseRTT: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestOriginPublishGet(t *testing.T) {
	o := testOrigin(t)
	if err := o.Publish("", []byte("x")); err == nil {
		t.Fatal("empty path published")
	}
	if err := o.Publish("/pads/a", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := o.Publish("/pads/b", []byte("beta")); err != nil {
		t.Fatal(err)
	}
	got, err := o.Get("/pads/a")
	if err != nil || string(got) != "alpha" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := o.Get("/pads/nope"); err == nil {
		t.Fatal("missing object fetched")
	}
	ps := o.Paths()
	if len(ps) != 2 || ps[0] != "/pads/a" || ps[1] != "/pads/b" {
		t.Fatalf("paths = %v", ps)
	}
}

func TestOriginDataIsolation(t *testing.T) {
	o := testOrigin(t)
	data := []byte("mutable")
	if err := o.Publish("/x", data); err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	got, err := o.Get("/x")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "mutable" {
		t.Fatal("origin shares caller's backing array")
	}
}

func edgeConfig(id, region string) EdgeConfig {
	return EdgeConfig{
		ID: id, Region: region,
		Server:     netsim.SharedServer{Name: id, UplinkKbps: 100000, Rho: 0.8, BaseRTT: 5 * time.Millisecond},
		CacheBytes: 1 << 20,
		OriginRTT:  40 * time.Millisecond,
		OriginKbps: 10000,
	}
}

func TestEdgeFetchMissThenHit(t *testing.T) {
	o := testOrigin(t)
	if err := o.Publish("/pad", bytes.Repeat([]byte("p"), 5000)); err != nil {
		t.Fatal(err)
	}
	e, err := NewEdge(edgeConfig("e1", "r1"), o)
	if err != nil {
		t.Fatal(err)
	}
	data, fill, miss, err := e.Fetch("/pad")
	if err != nil {
		t.Fatal(err)
	}
	if !miss || fill <= 0 {
		t.Fatalf("first fetch: miss=%v fill=%v, want miss with positive fill", miss, fill)
	}
	if len(data) != 5000 {
		t.Fatalf("fetched %d bytes", len(data))
	}
	_, fill, miss, err = e.Fetch("/pad")
	if err != nil {
		t.Fatal(err)
	}
	if miss || fill != 0 {
		t.Fatalf("second fetch: miss=%v fill=%v, want cache hit", miss, fill)
	}
	st := e.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1/1", st)
	}
	if _, _, _, err := e.Fetch("/absent"); err == nil {
		t.Fatal("fetch of unpublished object succeeded")
	}
}

func TestNewEdgeValidation(t *testing.T) {
	o := testOrigin(t)
	bad := []EdgeConfig{
		{},
		func() EdgeConfig { c := edgeConfig("e", "r"); c.CacheBytes = 0; return c }(),
		func() EdgeConfig { c := edgeConfig("e", "r"); c.OriginKbps = 0; return c }(),
		func() EdgeConfig { c := edgeConfig("e", "r"); c.OriginRTT = -time.Second; return c }(),
		func() EdgeConfig { c := edgeConfig("e", "r"); c.Server.UplinkKbps = 0; return c }(),
	}
	for i, cfg := range bad {
		if _, err := NewEdge(cfg, o); err == nil {
			t.Errorf("case %d: invalid edge accepted", i)
		}
	}
	if _, err := NewEdge(edgeConfig("e", "r"), nil); err == nil {
		t.Error("edge without origin accepted")
	}
}

// edgeFor is the edge Retrieve tries first for a region.
func edgeFor(c *CDN, region string) (*Edge, error) {
	ranked, err := c.rankedEdges(region)
	if err != nil {
		return nil, err
	}
	return ranked[0], nil
}

func TestCDNEdgeForPrefersRegionThenRTT(t *testing.T) {
	c, err := New(testOrigin(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := edgeFor(c, "anywhere"); err == nil {
		t.Fatal("edgeFor succeeded with no edges")
	}
	far := edgeConfig("far", "other")
	far.Server.BaseRTT = 50 * time.Millisecond
	near := edgeConfig("near", "other2")
	near.Server.BaseRTT = 2 * time.Millisecond
	home := edgeConfig("home", "mine")
	home.Server.BaseRTT = 80 * time.Millisecond
	for _, cfg := range []EdgeConfig{far, near, home} {
		if _, err := c.AddEdge(cfg); err != nil {
			t.Fatal(err)
		}
	}
	e, err := edgeFor(c, "mine")
	if err != nil || e.ID != "home" {
		t.Fatalf("edgeFor(mine) = %v, %v; want home", e, err)
	}
	e, err = edgeFor(c, "elsewhere")
	if err != nil || e.ID != "near" {
		t.Fatalf("edgeFor(elsewhere) = %v, %v; want near (lowest RTT)", e, err)
	}
}

func TestCDNAddEdgeDuplicate(t *testing.T) {
	c, err := New(testOrigin(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddEdge(edgeConfig("e1", "r")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddEdge(edgeConfig("e1", "r2")); err == nil {
		t.Fatal("duplicate edge id accepted")
	}
}

func TestRetrieveDeliversBytes(t *testing.T) {
	c, err := DefaultTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	blob := bytes.Repeat([]byte("m"), 20000)
	if err := c.Origin().Publish("/pads/gzip", blob); err != nil {
		t.Fatal(err)
	}
	r, err := c.Retrieve("region-2", "/pads/gzip", netsim.WLAN, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Data, blob) {
		t.Fatal("retrieved bytes differ from published")
	}
	if r.EdgeID != "edge-02" {
		t.Fatalf("served by %s, want edge-02", r.EdgeID)
	}
	if r.CacheHit {
		t.Fatal("first retrieval reported a cache hit")
	}
	r2, err := c.Retrieve("region-2", "/pads/gzip", netsim.WLAN, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("second retrieval missed the edge cache")
	}
	if r2.Time >= r.Time {
		t.Fatalf("cache hit (%v) not faster than miss (%v)", r2.Time, r.Time)
	}
}

// The Figure 9(b) shape: centralized retrieval time grows sharply with
// client count while the distributed (per-edge) time stays flat.
func TestCentralizedVsDistributedScaling(t *testing.T) {
	const edges = 10
	c, err := DefaultTopology(edges)
	if err != nil {
		t.Fatal(err)
	}
	blob := bytes.Repeat([]byte("p"), 30000)
	if err := c.Origin().Publish("/pad", blob); err != nil {
		t.Fatal(err)
	}
	// Warm every edge cache.
	for i := 0; i < edges; i++ {
		if _, err := c.Retrieve(fmt.Sprintf("region-%d", i), "/pad", netsim.WLAN, 1); err != nil {
			t.Fatal(err)
		}
	}
	centralAt := func(n int) time.Duration {
		r, err := c.RetrieveCentralized("/pad", netsim.WLAN, n)
		if err != nil {
			t.Fatal(err)
		}
		return r.Time
	}
	distAt := func(n int) time.Duration {
		perEdge := (n + edges - 1) / edges
		r, err := c.Retrieve("region-3", "/pad", netsim.WLAN, perEdge)
		if err != nil {
			t.Fatal(err)
		}
		return r.Time
	}
	c1, c300 := centralAt(1), centralAt(300)
	d1, d300 := distAt(1), distAt(300)
	if ratio := c300.Seconds() / c1.Seconds(); ratio < 5 {
		t.Fatalf("centralized 300-client slowdown only %.1fx; contention model broken", ratio)
	}
	if ratio := d300.Seconds() / d1.Seconds(); ratio > 3 {
		t.Fatalf("distributed 300-client slowdown %.1fx; should stay nearly flat", ratio)
	}
	if c300 <= d300 {
		t.Fatalf("at 300 clients centralized (%v) should be slower than distributed (%v)", c300, d300)
	}
}

func TestRetrieveConcurrentSafety(t *testing.T) {
	c, err := DefaultTopology(3)
	if err != nil {
		t.Fatal(err)
	}
	blob := bytes.Repeat([]byte("z"), 10000)
	if err := c.Origin().Publish("/pad", blob); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			region := fmt.Sprintf("region-%d", i%3)
			r, err := c.Retrieve(region, "/pad", netsim.LAN, 8)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(r.Data, blob) {
				errs <- fmt.Errorf("goroutine %d: data mismatch", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestDefaultTopologyValidation(t *testing.T) {
	if _, err := DefaultTopology(0); err == nil {
		t.Fatal("zero-edge topology accepted")
	}
	c, err := DefaultTopology(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Edges()) != 5 {
		t.Fatalf("topology has %d edges, want 5", len(c.Edges()))
	}
}

func TestEdgeFailover(t *testing.T) {
	c, err := DefaultTopology(3)
	if err != nil {
		t.Fatal(err)
	}
	blob := bytes.Repeat([]byte("f"), 9000)
	if err := c.Origin().Publish("/pad", blob); err != nil {
		t.Fatal(err)
	}
	home, err := edgeFor(c, "region-1")
	if err != nil {
		t.Fatal(err)
	}
	if home.ID != "edge-01" {
		t.Fatalf("home edge = %s", home.ID)
	}
	// Take the home edge down: retrieval must fail over, not fail.
	home.SetFailed(true)
	if !home.Failed() {
		t.Fatal("Failed() not reporting injected failure")
	}
	r, err := c.Retrieve("region-1", "/pad", netsim.WLAN, 1)
	if err != nil {
		t.Fatalf("failover retrieval failed: %v", err)
	}
	if r.EdgeID == "edge-01" {
		t.Fatal("retrieval served by a failed edge")
	}
	if !bytes.Equal(r.Data, blob) {
		t.Fatal("failover returned wrong bytes")
	}
	// Recovery restores locality.
	home.SetFailed(false)
	r, err = c.Retrieve("region-1", "/pad", netsim.WLAN, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.EdgeID != "edge-01" {
		t.Fatalf("recovered edge not preferred: served by %s", r.EdgeID)
	}
}

func TestAllEdgesDown(t *testing.T) {
	c, err := DefaultTopology(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Origin().Publish("/pad", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, e := range c.Edges() {
		e.SetFailed(true)
	}
	if _, err := c.Retrieve("region-0", "/pad", netsim.WLAN, 1); err == nil {
		t.Fatal("retrieval succeeded with every edge down")
	}
	if _, err := edgeFor(c, "region-0"); err == nil {
		t.Fatal("edgeFor returned a failed edge")
	}
}

func TestMissingObjectIsTerminal(t *testing.T) {
	c, err := DefaultTopology(3)
	if err != nil {
		t.Fatal(err)
	}
	// A missing object must not be retried across every edge as if it
	// were an edge failure.
	if _, err := c.Retrieve("region-0", "/absent", netsim.WLAN, 1); err == nil {
		t.Fatal("missing object retrieved")
	}
	for _, e := range c.Edges() {
		st := e.Stats()
		if st.Misses > 1 {
			t.Fatalf("edge %s saw %d misses; missing object retried as failover", e.ID, st.Misses)
		}
	}
}

func TestPrefetchWarmsAllEdges(t *testing.T) {
	c, err := DefaultTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Origin().Publish("/pad", bytes.Repeat([]byte("w"), 3000)); err != nil {
		t.Fatal(err)
	}
	c.Edges()[2].SetFailed(true)
	warmed, err := c.Prefetch("/pad")
	if err != nil {
		t.Fatal(err)
	}
	if warmed != 3 {
		t.Fatalf("warmed %d edges, want 3 (one down)", warmed)
	}
	// Every healthy edge now serves from cache.
	for i, e := range c.Edges() {
		if i == 2 {
			continue
		}
		_, fill, miss, err := e.Fetch("/pad")
		if err != nil {
			t.Fatal(err)
		}
		if miss || fill != 0 {
			t.Fatalf("edge %s not warm after prefetch", e.ID)
		}
	}
	if _, err := c.Prefetch("/absent"); err == nil {
		t.Fatal("prefetch of unpublished object succeeded")
	}
}
