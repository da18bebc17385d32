package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fractal/internal/core"
	"fractal/internal/faultnet"
	"fractal/internal/inp"
	"fractal/internal/mobilecode"
	"fractal/internal/proxy"
)

// directWorld is a minimal wired client environment around the builtin
// Direct module: a scriptable negotiator, a PAD store serving the packed
// module, and a scriptable content fetcher. It isolates client-plane
// logic (races, singleflight, degradation) from the full appserver.
type directWorld struct {
	trust  *mobilecode.TrustList
	meta   core.PADMeta
	packed []byte
}

func buildDirectWorld(t testing.TB) *directWorld {
	t.Helper()
	signer, err := mobilecode.NewSigner("app-operator")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := mobilecode.BuildModule(mobilecode.BuiltinSpecs()[0], "1.0", signer)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := mod.Pack()
	if err != nil {
		t.Fatal(err)
	}
	trust := mobilecode.NewTrustList()
	if err := trust.Add(signer.Entity, signer.PublicKey()); err != nil {
		t.Fatal(err)
	}
	return &directWorld{
		trust: trust,
		meta: core.PADMeta{
			ID: mod.ID, Version: mod.Version, Protocol: "direct",
			Size: mod.Size(), Digest: mod.Digest, URL: "/pads/" + mod.ID,
		},
		packed: packed,
	}
}

func (w *directWorld) config() Config {
	cfg := pdaConfig(w.trust)
	return cfg
}

// funcNeg adapts a function to the Negotiator interface.
type funcNeg func(appID string, env core.Env, n int) ([]core.PADMeta, error)

func (f funcNeg) Negotiate(appID string, env core.Env, n int) ([]core.PADMeta, error) {
	return f(appID, env, n)
}

// funcFetcher adapts a function to the PADFetcher interface.
type funcFetcher func(meta core.PADMeta) ([]byte, error)

func (f funcFetcher) FetchPAD(meta core.PADMeta) ([]byte, error) { return f(meta) }

// funcContent adapts a function to the ContentFetcher interface.
type funcContent func(req inp.AppReq) (inp.AppRep, error)

func (f funcContent) FetchContent(req inp.AppReq) (inp.AppRep, error) { return f(req) }

func (w *directWorld) negotiator() Negotiator {
	return funcNeg(func(string, core.Env, int) ([]core.PADMeta, error) {
		return []core.PADMeta{w.meta}, nil
	})
}

func (w *directWorld) padStore() PADFetcher {
	return funcFetcher(func(meta core.PADMeta) ([]byte, error) {
		if meta.ID != w.meta.ID {
			return nil, fmt.Errorf("unknown PAD %s", meta.ID)
		}
		return w.packed, nil
	})
}

// TestRequestDropsStaleVersionReply is the deterministic regression test
// for the version-commit race: a reply carrying an older version than the
// one already held (a slow response overtaken by a faster one, or a
// replayed frame) must not regress the content cache.
func TestRequestDropsStaleVersionReply(t *testing.T) {
	w := buildDirectWorld(t)
	var calls int32
	content := funcContent(func(req inp.AppReq) (inp.AppRep, error) {
		// First reply is version 2; the second is a stale version-1 reply
		// arriving late.
		v, body := 2, "content v2"
		if atomic.AddInt32(&calls, 1) > 1 {
			v, body = 1, "content v1"
		}
		return inp.AppRep{Resource: req.Resource, Version: v, PADID: w.meta.ID, Payload: []byte(body)}, nil
	})
	c, err := New(w.config(), w.negotiator(), w.padStore(), content)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request("webapp", "page"); err != nil {
		t.Fatal(err)
	}
	if got := c.HeldVersion("page"); got != 2 {
		t.Fatalf("held version = %d, want 2", got)
	}
	if _, err := c.Request("webapp", "page"); err != nil {
		t.Fatal(err)
	}
	if got := c.HeldVersion("page"); got != 2 {
		t.Fatalf("stale reply regressed held version to %d, want 2", got)
	}
	st := c.Stats()
	if st.StaleVersionDrops != 1 {
		t.Fatalf("stale drops = %d, want 1", st.StaleVersionDrops)
	}
	if st.Requests != 2 {
		t.Fatalf("requests = %d, want 2", st.Requests)
	}
}

// TestRequestVersionMonotonicUnderRace hammers Request from many
// goroutines against a server handing out versions in arbitrary order and
// checks (under -race) that the held version only ever advances.
func TestRequestVersionMonotonicUnderRace(t *testing.T) {
	w := buildDirectWorld(t)
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(42))
	var maxServed int
	content := funcContent(func(req inp.AppReq) (inp.AppRep, error) {
		mu.Lock()
		v := 1 + rng.Intn(100)
		if v > maxServed {
			maxServed = v
		}
		mu.Unlock()
		return inp.AppRep{Resource: req.Resource, Version: v, PADID: w.meta.ID,
			Payload: []byte(fmt.Sprintf("content v%d", v))}, nil
	})
	c, err := New(w.config(), w.negotiator(), w.padStore(), content)
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for i := 0; i < rounds; i++ {
				if _, err := c.Request("webapp", "page"); err != nil {
					t.Error(err)
					return
				}
				held := c.HeldVersion("page")
				if held < last {
					t.Errorf("held version regressed %d -> %d", last, held)
					return
				}
				last = held
			}
		}()
	}
	wg.Wait()
	if held := c.HeldVersion("page"); held != maxServed {
		t.Fatalf("final held version = %d, want max served %d", held, maxServed)
	}
}

// TestEnsureProtocolCollapsesStampede: a cold-start stampede of
// concurrent sessions must produce exactly one negotiation; everyone else
// joins it through the singleflight.
func TestEnsureProtocolCollapsesStampede(t *testing.T) {
	w := buildDirectWorld(t)
	var negotiations int32
	release := make(chan struct{})
	neg := funcNeg(func(string, core.Env, int) ([]core.PADMeta, error) {
		atomic.AddInt32(&negotiations, 1)
		<-release
		return []core.PADMeta{w.meta}, nil
	})
	c, err := New(w.config(), neg, w.padStore(), funcContent(nil))
	if err != nil {
		t.Fatal(err)
	}
	const stampede = 16
	var wg sync.WaitGroup
	errs := make([]error, stampede)
	for g := 0; g < stampede; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.EnsureProtocol("webapp")
		}(g)
	}
	// Give every goroutine time to reach the singleflight (the leader is
	// parked inside Negotiate until released, so none can finish early).
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if n := atomic.LoadInt32(&negotiations); n != 1 {
		t.Fatalf("stampede opened %d negotiations, want 1", n)
	}
	st := c.Stats()
	if st.Negotiations != 1 {
		t.Fatalf("stats.Negotiations = %d, want 1", st.Negotiations)
	}
	if st.CollapsedNegotiations != stampede-1 {
		t.Fatalf("collapsed = %d, want %d", st.CollapsedNegotiations, stampede-1)
	}
	// Warm path afterwards: cache hits, still one negotiation.
	if _, err := c.EnsureProtocol("webapp"); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Negotiations != 1 || st.ProtocolCacheHits != 1 {
		t.Fatalf("warm path stats = %+v", st)
	}
}

// TestDegradesToFallbackDirect: when the adaptation plane is down and a
// local Direct module is configured, the session degrades instead of
// failing — and the fallback still passes the security checks.
func TestDegradesToFallbackDirect(t *testing.T) {
	w := buildDirectWorld(t)
	cfg := w.config()
	cfg.FallbackDirect = w.packed
	down := funcNeg(func(string, core.Env, int) ([]core.PADMeta, error) {
		return nil, errors.New("proxy unreachable")
	})
	content := funcContent(func(req inp.AppReq) (inp.AppRep, error) {
		return inp.AppRep{Resource: req.Resource, Version: 1, PADID: w.meta.ID, Payload: []byte("direct body")}, nil
	})
	c, err := New(cfg, down, w.padStore(), content)
	if err != nil {
		t.Fatal(err)
	}
	pads, err := c.EnsureProtocol("webapp")
	if err != nil {
		t.Fatalf("degradation failed: %v", err)
	}
	if len(pads) != 1 || pads[0].ID != w.meta.ID {
		t.Fatalf("degraded pads = %+v", pads)
	}
	data, err := c.Request("webapp", "page")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "direct body" {
		t.Fatalf("degraded content = %q", data)
	}
	st := c.Stats()
	if st.Degradations != 1 {
		t.Fatalf("degradations = %d, want 1", st.Degradations)
	}
	if st.Negotiations != 0 {
		t.Fatalf("negotiations = %d, want 0", st.Negotiations)
	}
	// The degraded protocol is cached: later sessions reuse it without
	// re-touching the dead proxy.
	if _, err := c.EnsureProtocol("webapp"); err != nil {
		t.Fatal(err)
	}
	// Two cache hits: one inside Request, one from the explicit call.
	if st := c.Stats(); st.Degradations != 1 || st.ProtocolCacheHits != 2 {
		t.Fatalf("post-degradation stats = %+v", st)
	}
}

// TestDegradeOnDeployFailure: negotiation succeeds but every PAD download
// fails — the client still degrades rather than erroring.
func TestDegradeOnDeployFailure(t *testing.T) {
	w := buildDirectWorld(t)
	cfg := w.config()
	cfg.FallbackDirect = w.packed
	deadStore := funcFetcher(func(core.PADMeta) ([]byte, error) {
		return nil, errors.New("every edge down")
	})
	c, err := New(cfg, w.negotiator(), deadStore, funcContent(nil))
	if err != nil {
		t.Fatal(err)
	}
	pads, err := c.EnsureProtocol("webapp")
	if err != nil {
		t.Fatalf("degradation failed: %v", err)
	}
	if len(pads) != 1 || pads[0].Protocol != "direct" {
		t.Fatalf("degraded pads = %+v", pads)
	}
	if st := c.Stats(); st.Degradations != 1 {
		t.Fatalf("degradations = %d, want 1", st.Degradations)
	}
}

// TestNoFallbackSurfacesCause: without a configured fallback the original
// failure comes through untouched.
func TestNoFallbackSurfacesCause(t *testing.T) {
	w := buildDirectWorld(t)
	sentinel := errors.New("proxy unreachable")
	down := funcNeg(func(string, core.Env, int) ([]core.PADMeta, error) { return nil, sentinel })
	c, err := New(w.config(), down, w.padStore(), funcContent(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.EnsureProtocol("webapp"); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if st := c.Stats(); st.Degradations != 0 {
		t.Fatalf("degradations = %d, want 0", st.Degradations)
	}
}

// TestRetryPolicyBackoffDeterministic pins the transports' fixed
// schedule: retry n waits within [d/2, d] for d = 50ms·2^(n-1) capped at
// 2s, so the exponential envelope and the cap are exact and only the top
// half of each wait is drawn at random.
func TestRetryPolicyBackoffDeterministic(t *testing.T) {
	want := []time.Duration{50, 100, 200, 400, 800, 1600, 2000, 2000}
	for i, w := range want {
		d := w * time.Millisecond
		for range 50 {
			if got := backoff(i + 1); got < d/2 || got > d {
				t.Fatalf("backoff(%d) = %v, want within [%v, %v]", i+1, got, d/2, d)
			}
		}
	}
}

// waits records the backoff waits a transport takes instead of sleeping
// them.
type waits []time.Duration

func (w *waits) sleep(d time.Duration) { *w = append(*w, d) }

// skipWait takes a backoff wait without sleeping it.
func skipWait(time.Duration) {}

// noWait fails the test if a transport backs off at all.
func noWait(t *testing.T) func(time.Duration) {
	return func(d time.Duration) { t.Errorf("unexpected backoff wait of %v", d) }
}

// TestRetryingNegotiatorRecovers: two refused dials, then a clean one —
// TCPNegotiator retries on fresh connections and succeeds, with one
// jittered backoff per retry captured instead of slept.
func TestRetryingNegotiatorRecovers(t *testing.T) {
	w := buildWorld(t)
	addr := startProxyTCP(t, w)
	sched := faultnet.NewSchedule(1, faultnet.Fault{Kind: faultnet.Refuse}, faultnet.Fault{Kind: faultnet.Refuse})
	d := &faultnet.Dialer{Schedule: sched}
	var ws waits
	neg := &TCPNegotiator{Addr: addr, CallTimeout: faultCallTimeout, Dial: d.Dial, sleep: ws.sleep}
	pads, err := neg.Negotiate("webapp", pdaConfig(w.trust).Env, 75)
	if err != nil {
		t.Fatal(err)
	}
	if len(pads) == 0 {
		t.Fatal("no PADs negotiated")
	}
	if got := sched.Counts(); got["refuse"] != 2 || got["none"] != 1 {
		t.Fatalf("schedule counts = %v, want two refusals then one clean dial", got)
	}
	if len(ws) != 2 || ws[0] < 25*time.Millisecond || ws[0] > 50*time.Millisecond ||
		ws[1] < 50*time.Millisecond || ws[1] > 100*time.Millisecond {
		t.Fatalf("backoff waits = %v, want one in [25ms,50ms] then one in [50ms,100ms]", ws)
	}
}

// TestRetryingNegotiatorExhausts: a hard-down proxy fails after exactly
// three dials with the last error wrapped, and no wait follows the last.
func TestRetryingNegotiatorExhausts(t *testing.T) {
	var dials atomic.Int32
	dial := func(string, string) (net.Conn, error) {
		dials.Add(1)
		return nil, faultnet.ErrRefused
	}
	var ws waits
	neg := &TCPNegotiator{Addr: "proxy.invalid:7001", Dial: dial, sleep: ws.sleep}
	_, err := neg.Negotiate("webapp", core.Env{}, 1)
	if !errors.Is(err, faultnet.ErrRefused) {
		t.Fatalf("err = %v, want wrapped ErrRefused", err)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("err = %v, want the attempt count", err)
	}
	if n := dials.Load(); n != 3 {
		t.Fatalf("dials = %d, want 3", n)
	}
	if n := len(ws); n != 2 {
		t.Fatalf("backoff waits = %d, want 2", n)
	}
}

// TestNegotiationRefusalNotRetried: an in-band refusal cannot succeed on
// retry, so the negotiator returns it as *inp.PeerError after one dial and
// no wait — whether the proxy's policy denies the principal (an error
// frame) or the proxy refuses at INIT_REP.
func TestNegotiationRefusalNotRetried(t *testing.T) {
	w := buildWorld(t)
	pt := proxy.NewPolicyTable()
	if err := pt.Restrict("banned"); err != nil {
		t.Fatal(err)
	}
	w.proxy.SetAuthorizer(pt)
	for name, addr := range map[string]string{
		"policy-denial":    startProxyTCP(t, w),
		"init-rep-refusal": startRefusingProxy(t),
	} {
		t.Run(name, func(t *testing.T) {
			var dials atomic.Int32
			dial := func(network, addr string) (net.Conn, error) {
				dials.Add(1)
				return net.Dial(network, addr)
			}
			neg := &TCPNegotiator{Addr: addr, ClientID: "banned", CallTimeout: faultCallTimeout, Dial: dial, sleep: noWait(t)}
			_, err := neg.Negotiate("webapp", pdaConfig(w.trust).Env, 75)
			var pe *inp.PeerError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *inp.PeerError", err)
			}
			if n := dials.Load(); n != 1 {
				t.Fatalf("dials = %d, want 1", n)
			}
		})
	}
}

// startRefusingProxy serves one negotiation that it refuses at INIT_REP.
func startRefusingProxy(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { _ = ln.Close(); <-done })
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		c := inp.NewConn(conn)
		var req inp.InitReq
		var meta inp.CliMetaRep
		if c.RecvInto(inp.MsgInitReq, &req) != nil || c.RecvInto(inp.MsgCliMetaRep, &meta) != nil {
			return
		}
		_ = c.Send(inp.MsgInitRep, inp.InitRep{Reason: "access denied"})
	}()
	return ln.Addr().String()
}
