package client

import (
	"bytes"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fractal/internal/appserver"
	"fractal/internal/cdn"
	"fractal/internal/core"
	"fractal/internal/inp"
	"fractal/internal/mobilecode"
	"fractal/internal/netsim"
	"fractal/internal/proxy"
	"fractal/internal/workload"
)

// world is a fully wired in-process Fractal deployment.
type world struct {
	app   *appserver.Server
	proxy *proxy.Proxy
	cdn   *cdn.CDN
	v1    *workload.Corpus
	v2    *workload.Corpus
	trust *mobilecode.TrustList
}

func buildWorld(t testing.TB) *world {
	t.Helper()
	signer, err := mobilecode.NewSigner("app-operator")
	if err != nil {
		t.Fatal(err)
	}
	app, err := appserver.New("webapp", signer)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := workload.Generate(workload.Config{
		Pages: 6, TextBytes: 2048, Images: 2, ImageBytes: 16384, Seed: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := workload.MutateCorpus(v1, workload.DefaultMutation(201))
	if err != nil {
		t.Fatal(err)
	}
	if err := app.InstallCorpus(v1, v2); err != nil {
		t.Fatal(err)
	}
	if err := app.DeployPADs("1.0"); err != nil {
		t.Fatal(err)
	}
	appMeta, err := app.MeasureAppMeta(4)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.CaseStudyMatrices()
	if err != nil {
		t.Fatal(err)
	}
	px, err := proxy.New(core.OverheadModel{
		Matrices: ms, Rho: 0.8, ServerCPUMHz: 2000,
		IncludeServerComp: true, SessionRequests: 75,
	}, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := px.PushAppMeta(appMeta); err != nil {
		t.Fatal(err)
	}
	topo, err := cdn.DefaultTopology(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.PublishPADs(topo.Origin()); err != nil {
		t.Fatal(err)
	}
	trust := mobilecode.NewTrustList()
	entity, key := app.TrustedKey()
	if err := trust.Add(entity, key); err != nil {
		t.Fatal(err)
	}
	return &world{app: app, proxy: px, cdn: topo, v1: v1, v2: v2, trust: trust}
}

func (w *world) fetcher(region string, link netsim.Link) *CDNFetcher {
	return &CDNFetcher{CDN: w.cdn, Region: region, Link: link, Concurrent: 1}
}

func pdaConfig(trust *mobilecode.TrustList) Config {
	return Config{
		Env: core.Env{
			Dev:  core.DevMeta{OSType: core.OSWinCE, CPUType: core.CPUTypePXA255, CPUMHz: 400, MemMB: 64},
			Ntwk: core.NtwkMeta{NetworkType: core.NetBluetooth, BandwidthKbps: 723},
		},
		SessionRequests: 75,
		Trust:           trust,
		Sandbox:         mobilecode.DefaultSandbox(),
	}
}

func desktopConfig(trust *mobilecode.TrustList) Config {
	return Config{
		Env: core.Env{
			Dev:  core.DevMeta{OSType: core.OSFedora, CPUType: core.CPUTypeP4, CPUMHz: 2000, MemMB: 512},
			Ntwk: core.NtwkMeta{NetworkType: core.NetLAN, BandwidthKbps: 100000},
		},
		SessionRequests: 75,
		Trust:           trust,
		Sandbox:         mobilecode.DefaultSandbox(),
	}
}

func TestEndToEndRequest(t *testing.T) {
	w := buildWorld(t)
	c, err := New(pdaConfig(w.trust), w.proxy, w.fetcher("region-0", netsim.Bluetooth), w.app)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Request("webapp", "page-000")
	if err != nil {
		t.Fatal(err)
	}
	want := w.v2.Pages[0].Bytes()
	if !bytes.Equal(got, want) {
		t.Fatalf("content mismatch: %d vs %d bytes", len(got), len(want))
	}
	st := c.Stats()
	if st.Negotiations != 1 || st.PADDownloads == 0 || st.Requests != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if c.HeldVersion("page-000") != 2 {
		t.Fatalf("held version = %d, want 2", c.HeldVersion("page-000"))
	}
}

func TestProtocolCacheAvoidsRenegotiation(t *testing.T) {
	w := buildWorld(t)
	c, err := New(desktopConfig(w.trust), w.proxy, w.fetcher("region-1", netsim.LAN), w.app)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []string{"page-000", "page-001", "page-002"} {
		if _, err := c.Request("webapp", res); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Negotiations != 1 {
		t.Fatalf("negotiations = %d, want 1 (protocol cache)", st.Negotiations)
	}
	if st.ProtocolCacheHits != 2 {
		t.Fatalf("protocol cache hits = %d, want 2", st.ProtocolCacheHits)
	}
	if st.Requests != 3 {
		t.Fatalf("requests = %d", st.Requests)
	}
}

func TestDifferentialSecondFetch(t *testing.T) {
	w := buildWorld(t)
	c, err := New(pdaConfig(w.trust), w.proxy, w.fetcher("region-0", netsim.Bluetooth), w.app)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Request("webapp", "page-003")
	if err != nil {
		t.Fatal(err)
	}
	stAfterFirst := c.Stats()
	again, err := c.Request("webapp", "page-003")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("repeat request returned different content")
	}
	st := c.Stats()
	secondPayload := st.PayloadBytes - stAfterFirst.PayloadBytes
	firstPayload := stAfterFirst.PayloadBytes
	if secondPayload >= firstPayload/2 {
		t.Fatalf("second fetch payload %d not differential (first was %d)", secondPayload, firstPayload)
	}
}

func TestForgetForcesColdStart(t *testing.T) {
	w := buildWorld(t)
	c, err := New(pdaConfig(w.trust), w.proxy, w.fetcher("region-0", netsim.Bluetooth), w.app)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request("webapp", "page-004"); err != nil {
		t.Fatal(err)
	}
	c.Forget("page-004")
	if c.HeldVersion("page-004") != 0 {
		t.Fatal("Forget did not clear version")
	}
	got, err := c.Request("webapp", "page-004")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, w.v2.Pages[4].Bytes()) {
		t.Fatal("cold restart returned wrong content")
	}
}

func TestEnvironmentsNegotiateDifferentProtocols(t *testing.T) {
	w := buildWorld(t)
	pda, err := New(pdaConfig(w.trust), w.proxy, w.fetcher("region-0", netsim.Bluetooth), w.app)
	if err != nil {
		t.Fatal(err)
	}
	desktop, err := New(desktopConfig(w.trust), w.proxy, w.fetcher("region-1", netsim.LAN), w.app)
	if err != nil {
		t.Fatal(err)
	}
	padsPDA, err := pda.EnsureProtocol("webapp")
	if err != nil {
		t.Fatal(err)
	}
	padsDesk, err := desktop.EnsureProtocol("webapp")
	if err != nil {
		t.Fatal(err)
	}
	if padsPDA[0].ID == padsDesk[0].ID {
		t.Fatalf("PDA and desktop negotiated the same PAD %s", padsPDA[0].ID)
	}
	if padsDesk[0].Protocol != "direct" {
		t.Errorf("desktop-LAN negotiated %s, want direct", padsDesk[0].Protocol)
	}
	if padsPDA[0].Protocol != "bitmap" {
		t.Errorf("PDA-Bluetooth negotiated %s, want bitmap", padsPDA[0].Protocol)
	}
}

func TestSetEnvRenegotiates(t *testing.T) {
	w := buildWorld(t)
	c, err := New(desktopConfig(w.trust), w.proxy, w.fetcher("region-0", netsim.LAN), w.app)
	if err != nil {
		t.Fatal(err)
	}
	pads, err := c.EnsureProtocol("webapp")
	if err != nil {
		t.Fatal(err)
	}
	first := pads[0].Protocol
	// Roam to the PDA environment.
	if err := c.SetEnv(pdaConfig(w.trust).Env); err != nil {
		t.Fatal(err)
	}
	pads, err = c.EnsureProtocol("webapp")
	if err != nil {
		t.Fatal(err)
	}
	if pads[0].Protocol == first {
		t.Fatalf("renegotiation after roaming still picked %s", first)
	}
	if c.Stats().Negotiations != 2 {
		t.Fatalf("negotiations = %d, want 2", c.Stats().Negotiations)
	}
	if err := c.SetEnv(core.Env{}); err == nil {
		t.Error("invalid env accepted")
	}
}

// TestSetEnvDuringNegotiationCachesNewEnvPath: SetEnv while the first
// negotiation is blocked at the proxy. A caller under the new environment
// runs its own negotiation instead of joining the old one, the old caller
// still gets the old environment's path, and what the client caches is
// the new environment's path.
func TestSetEnvDuringNegotiationCachesNewEnvPath(t *testing.T) {
	w := buildWorld(t)
	desktop, pda := desktopConfig(w.trust), pdaConfig(w.trust)
	wantProto := map[core.DevMeta]string{}
	for _, env := range []core.Env{desktop.Env, pda.Env} {
		pads, err := w.proxy.Negotiate("webapp", env, desktop.SessionRequests)
		if err != nil {
			t.Fatal(err)
		}
		wantProto[env.Dev] = pads[0].Protocol
	}
	if wantProto[desktop.Env.Dev] == wantProto[pda.Env.Dev] {
		t.Fatalf("desktop and PDA both negotiate %s; the fixture no longer separates them", wantProto[pda.Env.Dev])
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	gate := funcNeg(func(appID string, env core.Env, n int) ([]core.PADMeta, error) {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		return w.proxy.Negotiate(appID, env, n)
	})
	c, err := New(desktop, gate, w.fetcher("region-0", netsim.LAN), w.app)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		proto string
		err   error
	}
	ensure := func(out chan<- outcome) {
		pads, err := c.EnsureProtocol("webapp")
		if err != nil {
			out <- outcome{err: err}
			return
		}
		out <- outcome{proto: pads[0].Protocol}
	}
	old, fresh := make(chan outcome, 1), make(chan outcome, 1)
	go ensure(old)
	<-entered
	if err := c.SetEnv(pda.Env); err != nil {
		t.Fatal(err)
	}
	go ensure(fresh)
	select {
	case got := <-fresh:
		if got.err != nil || got.proto != wantProto[pda.Env.Dev] {
			t.Errorf("caller under the new environment got (%s, %v), want %s", got.proto, got.err, wantProto[pda.Env.Dev])
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("a caller under the new environment joined the old environment's blocked negotiation")
	}
	close(release)
	if got := <-old; got.err != nil || got.proto != wantProto[desktop.Env.Dev] {
		t.Errorf("the caller that started under the old environment got (%s, %v), want %s", got.proto, got.err, wantProto[desktop.Env.Dev])
	}
	pads, err := c.EnsureProtocol("webapp")
	if err != nil {
		t.Fatal(err)
	}
	if pads[0].Protocol != wantProto[pda.Env.Dev] {
		t.Fatalf("after the old negotiation finished the client serves %s, want the PDA's %s", pads[0].Protocol, wantProto[pda.Env.Dev])
	}
	if st := c.Stats(); st.Negotiations != 2 || st.ProtocolCacheHits != 1 {
		t.Fatalf("stats %+v, want 2 negotiations and the last call a cache hit", st)
	}
}

func TestUntrustedModuleRejected(t *testing.T) {
	w := buildWorld(t)
	cfg := pdaConfig(mobilecode.NewTrustList()) // empty trust list
	c, err := New(cfg, w.proxy, w.fetcher("region-0", netsim.Bluetooth), w.app)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Request("webapp", "page-000")
	if err == nil || !strings.Contains(err.Error(), "security") {
		t.Fatalf("err = %v, want security rejection", err)
	}
	if c.Stats().SecurityRejections == 0 {
		t.Fatal("security rejection not counted")
	}
}

func TestTamperedModuleRejected(t *testing.T) {
	w := buildWorld(t)
	// Republish a tampered pad-bitmap: valid signature from an unknown
	// signer (substitution attack).
	mallory, err := mobilecode.NewSigner("mallory")
	if err != nil {
		t.Fatal(err)
	}
	forged, err := mobilecode.BuildModule(mobilecode.BuiltinSpecs()[2], "6.66", mallory)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := forged.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.cdn.Origin().Publish("/pads/pad-bitmap", packed); err != nil {
		t.Fatal(err)
	}
	c, err := New(pdaConfig(w.trust), w.proxy, w.fetcher("region-0", netsim.Bluetooth), w.app)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Request("webapp", "page-000")
	if err == nil {
		t.Fatal("client deployed a module signed by an untrusted entity")
	}
}

func TestDigestBindingRejectsSubstitution(t *testing.T) {
	w := buildWorld(t)
	// A *trusted* but different module than negotiated: same signer,
	// different payload -> digest mismatch against PADMeta.
	entity, _ := w.app.TrustedKey()
	_ = entity
	signerOther, err := mobilecode.NewSigner("app-operator")
	if err != nil {
		t.Fatal(err)
	}
	// Trust the second signer too, so only the digest check can catch it.
	if err := w.trust.Add("app-operator-2", signerOther.PublicKey()); err != nil {
		t.Fatal(err)
	}
	spec := mobilecode.BuiltinSpecs()[2]
	spec.Params = map[string]string{"bitmap.block": "1024"} // different payload
	other, err := mobilecode.BuildModule(spec, "1.0", signerOther)
	if err != nil {
		t.Fatal(err)
	}
	other.Entity = "app-operator-2"
	// Re-sign under the new entity name.
	otherPacked, err := mobilecode.BuildModule(spec, "1.0", signerOther)
	if err != nil {
		t.Fatal(err)
	}
	_ = other
	packed, err := otherPacked.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.cdn.Origin().Publish("/pads/pad-bitmap", packed); err != nil {
		t.Fatal(err)
	}
	c, err := New(pdaConfig(w.trust), w.proxy, w.fetcher("region-0", netsim.Bluetooth), w.app)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request("webapp", "page-000"); err == nil {
		t.Fatal("client accepted a module whose digest differs from negotiated metadata")
	}
}

func TestNewValidation(t *testing.T) {
	w := buildWorld(t)
	good := pdaConfig(w.trust)
	if _, err := New(good, nil, w.fetcher("region-0", netsim.Bluetooth), w.app); err == nil {
		t.Error("nil negotiator accepted")
	}
	bad := good
	bad.SessionRequests = 0
	if _, err := New(bad, w.proxy, w.fetcher("region-0", netsim.Bluetooth), w.app); err == nil {
		t.Error("zero session requests accepted")
	}
	bad = good
	bad.Trust = nil
	if _, err := New(bad, w.proxy, w.fetcher("region-0", netsim.Bluetooth), w.app); err == nil {
		t.Error("nil trust accepted")
	}
	bad = good
	bad.Sandbox = mobilecode.Sandbox{}
	if _, err := New(bad, w.proxy, w.fetcher("region-0", netsim.Bluetooth), w.app); err == nil {
		t.Error("zero sandbox accepted")
	}
}

// Full TCP deployment: proxy daemon + application INP server + TCP client
// transports, the complete Figure 4 exchange on real sockets.
func TestEndToEndOverTCP(t *testing.T) {
	w := buildWorld(t)

	psrv, err := proxy.NewServer(w.proxy, 8, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pdone := make(chan error, 1)
	go func() { pdone <- psrv.Serve(pln) }()
	defer func() { _ = psrv.Close(); <-pdone }()

	asrv, err := appserver.NewINPServer(w.app, 8, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	aln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	adone := make(chan error, 1)
	go func() { adone <- asrv.Serve(aln) }()
	defer func() { _ = asrv.Close(); <-adone }()

	session, err := DialAppSession(aln.Addr().String(), SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()

	c, err := New(pdaConfig(w.trust),
		&TCPNegotiator{Addr: pln.Addr().String()},
		w.fetcher("region-2", netsim.Bluetooth),
		session)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Request("webapp", "page-001")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, w.v2.Pages[1].Bytes()) {
		t.Fatal("TCP end-to-end content mismatch")
	}
	// Second differential request over the same session.
	if _, err := c.Request("webapp", "page-001"); err != nil {
		t.Fatal(err)
	}
	// And an in-band server error does not kill the session.
	_, err = session.FetchContent(inp.AppReq{AppID: "webapp", Resource: "page-404"})
	if err == nil {
		t.Fatal("missing resource served")
	}
	if _, err := c.Request("webapp", "page-002"); err != nil {
		t.Fatal(err)
	}
}
