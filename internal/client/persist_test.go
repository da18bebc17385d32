package client

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fractal/internal/core"
	"fractal/internal/netsim"
)

func TestProbeEnv(t *testing.T) {
	env, err := ProbeEnv("LAN", 100000)
	if err != nil {
		t.Fatal(err)
	}
	if env.Dev.CPUMHz <= 0 || env.Dev.MemMB <= 0 {
		t.Fatalf("probe produced %+v", env.Dev)
	}
	if env.Dev.OSType == "" || env.Dev.CPUType == "" {
		t.Fatalf("probe missing identity: %+v", env.Dev)
	}
	if _, err := ProbeEnv("", 1000); err == nil {
		t.Error("empty network type accepted")
	}
	if _, err := ProbeEnv("LAN", 0); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestCPUAndMemParsers(t *testing.T) {
	dir := t.TempDir()
	cpuinfo := filepath.Join(dir, "cpuinfo")
	if err := os.WriteFile(cpuinfo, []byte("processor : 0\ncpu MHz : 2100.123\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := cpuMHzFromProc(cpuinfo); got != 2100.123 {
		t.Fatalf("cpu MHz = %v", got)
	}
	if got := cpuMHzFromProc(filepath.Join(dir, "absent")); got != 0 {
		t.Fatalf("missing file cpu MHz = %v", got)
	}
	meminfo := filepath.Join(dir, "meminfo")
	if err := os.WriteFile(meminfo, []byte("MemTotal: 2097152 kB\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := memMBFromProc(meminfo); got != 2048 {
		t.Fatalf("mem MB = %v", got)
	}
	if got := memMBFromProc(filepath.Join(dir, "absent")); got != 0 {
		t.Fatalf("missing file mem = %v", got)
	}
}

func TestProtocolCachePersistence(t *testing.T) {
	w := buildWorld(t)
	path := filepath.Join(t.TempDir(), "protocols.json")

	first, err := New(pdaConfig(w.trust), w.proxy, w.fetcher("region-0", netsim.Bluetooth), w.app)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.EnsureProtocol("webapp"); err != nil {
		t.Fatal(err)
	}
	if err := first.SaveProtocolCache(path); err != nil {
		t.Fatal(err)
	}

	// A fresh client on the same device restores the cache and never
	// negotiates — but still downloads + verifies the modules.
	second, err := New(pdaConfig(w.trust), w.proxy, w.fetcher("region-0", netsim.Bluetooth), w.app)
	if err != nil {
		t.Fatal(err)
	}
	n, err := second.LoadProtocolCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d apps, want 1", n)
	}
	if _, err := second.Request("webapp", "page-000"); err != nil {
		t.Fatal(err)
	}
	st := second.Stats()
	if st.Negotiations != 0 {
		t.Fatalf("restored client negotiated %d times, want 0", st.Negotiations)
	}
	if st.PADDownloads == 0 {
		t.Fatal("restored client deployed nothing")
	}

	// A client in a different environment must ignore the stale cache.
	other, err := New(desktopConfig(w.trust), w.proxy, w.fetcher("region-1", netsim.LAN), w.app)
	if err != nil {
		t.Fatal(err)
	}
	n, err = other.LoadProtocolCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("different-env client restored %d apps, want 0", n)
	}
}

// TestDegradedProtocolNotPersisted: a client that degraded while the proxy
// was down saves no entry for the app, so a later client that loads the
// file negotiates instead of staying on Direct.
func TestDegradedProtocolNotPersisted(t *testing.T) {
	w := buildDirectWorld(t)
	path := filepath.Join(t.TempDir(), "protocols.json")
	cfg := w.config()
	cfg.FallbackDirect = w.packed
	down := funcNeg(func(string, core.Env, int) ([]core.PADMeta, error) {
		return nil, errors.New("proxy unreachable")
	})
	first, err := New(cfg, down, w.padStore(), funcContent(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.EnsureProtocol("webapp"); err != nil {
		t.Fatal(err)
	}
	if st := first.Stats(); st.Degradations != 1 {
		t.Fatalf("degradations = %d, want 1", st.Degradations)
	}
	if err := first.SaveProtocolCache(path); err != nil {
		t.Fatal(err)
	}

	second, err := New(cfg, w.negotiator(), w.padStore(), funcContent(nil))
	if err != nil {
		t.Fatal(err)
	}
	n, err := second.LoadProtocolCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("restored %d apps from a degraded client's cache, want 0", n)
	}
	if _, err := second.EnsureProtocol("webapp"); err != nil {
		t.Fatal(err)
	}
	if st := second.Stats(); st.Negotiations != 1 || st.Degradations != 0 {
		t.Fatalf("after loading: negotiations %d, degradations %d; want 1 and 0", st.Negotiations, st.Degradations)
	}
}

func TestLoadProtocolCacheErrors(t *testing.T) {
	w := buildWorld(t)
	c, err := New(pdaConfig(w.trust), w.proxy, w.fetcher("region-0", netsim.Bluetooth), w.app)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadProtocolCache(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("missing cache file accepted")
	}
	// A cache that does not parse (e.g. truncated by a crash) is treated
	// as absent, not fatal: the client restores nothing and renegotiates.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := c.LoadProtocolCache(bad)
	if err != nil {
		t.Errorf("corrupt cache errored: %v", err)
	}
	if n != 0 {
		t.Errorf("corrupt cache restored %d apps, want 0", n)
	}
}

// TestSaveProtocolCacheCrashSafety is the regression test for the
// non-atomic save: a truncated cache (the observable crash artifact of
// the old in-place WriteFile) must not poison a later session, and a
// successful save must be all-or-nothing via temp-file + rename.
func TestSaveProtocolCacheCrashSafety(t *testing.T) {
	w := buildWorld(t)
	path := filepath.Join(t.TempDir(), "protocols.json")

	first, err := New(pdaConfig(w.trust), w.proxy, w.fetcher("region-0", netsim.Bluetooth), w.app)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.EnsureProtocol("webapp"); err != nil {
		t.Fatal(err)
	}
	if err := first.SaveProtocolCache(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// No temp residue next to the committed cache.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("save left %d files in cache dir, want 1", len(entries))
	}

	// Simulate a crash mid-write under the OLD scheme: the file holds a
	// prefix of the JSON. A fresh client must shrug it off and negotiate.
	if err := os.WriteFile(path, good[:len(good)/2], 0o600); err != nil {
		t.Fatal(err)
	}
	second, err := New(pdaConfig(w.trust), w.proxy, w.fetcher("region-0", netsim.Bluetooth), w.app)
	if err != nil {
		t.Fatal(err)
	}
	n, err := second.LoadProtocolCache(path)
	if err != nil {
		t.Fatalf("truncated cache errored: %v", err)
	}
	if n != 0 {
		t.Fatalf("truncated cache restored %d apps, want 0", n)
	}
	if _, err := second.Request("webapp", "page-000"); err != nil {
		t.Fatal(err)
	}
	if second.Stats().Negotiations != 1 {
		t.Fatalf("negotiations = %d, want 1 after discarding truncated cache", second.Stats().Negotiations)
	}

	// Re-saving over the truncated file restores a complete cache.
	if err := second.SaveProtocolCache(path); err != nil {
		t.Fatal(err)
	}
	third, err := New(pdaConfig(w.trust), w.proxy, w.fetcher("region-0", netsim.Bluetooth), w.app)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := third.LoadProtocolCache(path); err != nil || n != 1 {
		t.Fatalf("re-saved cache restored (%d, %v), want (1, nil)", n, err)
	}
}

func TestStaleCacheFallsBackToNegotiation(t *testing.T) {
	w := buildWorld(t)
	path := filepath.Join(t.TempDir(), "protocols.json")
	c, err := New(pdaConfig(w.trust), w.proxy, w.fetcher("region-0", netsim.Bluetooth), w.app)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.EnsureProtocol("webapp"); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveProtocolCache(path); err != nil {
		t.Fatal(err)
	}
	// Republish a different module under the negotiated PAD's URL: the
	// cached digest no longer matches, so the restored client must fall
	// back to a fresh negotiation (which returns updated metadata).
	app2 := w.app
	appMeta, err := app2.MeasureAppMeta(4)
	if err != nil {
		t.Fatal(err)
	}
	_ = appMeta
	fresh, err := New(pdaConfig(w.trust), w.proxy, w.fetcher("region-0", netsim.Bluetooth), w.app)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.LoadProtocolCache(path); err != nil {
		t.Fatal(err)
	}
	// Corrupt the cached digest to simulate a module rollover.
	fresh.mu.Lock()
	pads := fresh.protocolCache["webapp"].pads
	pads[0].Digest[0] ^= 0xFF
	fresh.mu.Unlock()
	if _, err := fresh.EnsureProtocol("webapp"); err != nil {
		t.Fatalf("stale cache did not fall back to negotiation: %v", err)
	}
	if fresh.Stats().Negotiations != 1 {
		t.Fatalf("negotiations = %d, want 1 (fallback)", fresh.Stats().Negotiations)
	}
}

// TestProtocolCacheBindsSessionLength: Eq. 3 amortizes the PAD download
// over the session length, so a saved cache is bound to it. With
// pad-bitmap advertised at 400,000 B, a 75-request PDA takes bitmap and a
// 1-request one cannot pay for it: a cache saved at 75 restores nothing
// for the 1-request client, which negotiates its own path, and restores
// fully for another 75-request client, which does not negotiate.
func TestProtocolCacheBindsSessionLength(t *testing.T) {
	w := buildWorld(t)
	appMeta, err := w.app.MeasureAppMeta(4)
	if err != nil {
		t.Fatal(err)
	}
	// The proxy package's fixture (its testApp, pad-bitmap made 400,000 B)
	// over the real modules, so the chosen PADs still deploy.
	fixture := map[string]core.PADOverhead{
		"pad-direct": {TrafficBytes: 140000},
		"pad-gzip":   {ClientCompStd: 40 * time.Millisecond, TrafficBytes: 50000},
		"pad-bitmap": {ClientCompStd: 85 * time.Millisecond, TrafficBytes: 30000},
	}
	var pads []core.PADMeta
	for _, m := range appMeta.PADs {
		if o, ok := fixture[m.ID]; ok {
			m.Overhead, m.Size = o, 4096
			if m.ID == "pad-bitmap" {
				m.Size = 400_000
			}
			pads = append(pads, m)
		}
	}
	if len(pads) != len(fixture) {
		t.Fatalf("the app server publishes %d of the fixture's %d PADs", len(pads), len(fixture))
	}
	appMeta.PADs = pads
	if err := w.proxy.PushAppMeta(appMeta); err != nil {
		t.Fatal(err)
	}
	clientAt := func(reqs int) *Client {
		cfg := pdaConfig(w.trust)
		cfg.SessionRequests = reqs
		c, err := New(cfg, w.proxy, w.fetcher("region-0", netsim.Bluetooth), w.app)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	protoOf := func(c *Client) string {
		pads, err := c.EnsureProtocol("webapp")
		if err != nil {
			t.Fatal(err)
		}
		return pads[0].ID
	}
	path := filepath.Join(t.TempDir(), "protocols.json")
	long := clientAt(75)
	saved := protoOf(long)
	if saved != "pad-bitmap" {
		t.Fatalf("a 75-request PDA negotiated %s, want pad-bitmap", saved)
	}
	if err := long.SaveProtocolCache(path); err != nil {
		t.Fatal(err)
	}

	short := clientAt(1)
	if n, err := short.LoadProtocolCache(path); err != nil || n != 0 {
		t.Fatalf("a 1-request client restored (%d, %v) from a cache saved at 75, want (0, nil)", n, err)
	}
	if got := protoOf(short); got == saved {
		t.Fatalf("a 1-request PDA negotiated %s, as at 75; the fixture no longer separates them", got)
	}
	if st := short.Stats(); st.Negotiations != 1 {
		t.Fatalf("the 1-request client negotiated %d times, want 1", st.Negotiations)
	}

	again := clientAt(75)
	if n, err := again.LoadProtocolCache(path); err != nil || n != 1 {
		t.Fatalf("a 75-request client restored (%d, %v), want (1, nil)", n, err)
	}
	if got := protoOf(again); got != saved {
		t.Fatalf("the restored 75-request client serves %s, want %s", got, saved)
	}
	if st := again.Stats(); st.Negotiations != 0 {
		t.Fatalf("the restored 75-request client negotiated %d times, want 0", st.Negotiations)
	}
}
