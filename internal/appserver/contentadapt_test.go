package appserver

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
	"testing"

	"fractal/internal/codec"
	"fractal/internal/core"
	"fractal/internal/mobilecode"
	"fractal/internal/transcode"
	"fractal/internal/workload"
)

func caServer(t testing.TB) *Server {
	t.Helper()
	s := testServer(t)
	if err := s.DeployContentAdaptation("1.0"); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDeployContentAdaptationRequiresCommPADs(t *testing.T) {
	signer := testServer(t).signer
	s, err := New("ca", signer)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DeployContentAdaptation("1.0"); err == nil {
		t.Fatal("content adaptation deployed without communication PADs")
	}
}

func TestContentAdaptationAppMetaBuildsTwoLevelPAT(t *testing.T) {
	s := caServer(t)
	app, err := s.MeasureContentAdaptationAppMeta(3)
	if err != nil {
		t.Fatal(err)
	}
	// 2 transcoder roots + 2x4 context children.
	if len(app.PADs) != 10 {
		t.Fatalf("PADs = %d, want 10", len(app.PADs))
	}
	pat, err := core.BuildPAT(app)
	if err != nil {
		t.Fatalf("AppMeta does not form a valid PAT: %v", err)
	}
	paths := pat.Paths()
	if len(paths) != 8 {
		t.Fatalf("paths = %d, want 8 (2 renditions x 4 protocols)", len(paths))
	}
	for _, p := range paths {
		if len(p) != 2 {
			t.Fatalf("path %v is not two-level", p)
		}
	}
	// Thumbnail children must report less traffic than full-fidelity ones
	// for the same protocol.
	traffic := map[string]int64{}
	for _, p := range app.PADs {
		traffic[p.ID] = p.Overhead.TrafficBytes
	}
	for _, proto := range []string{"pad-direct", "pad-gzip", "pad-bitmap", "pad-vary"} {
		full := traffic[proto]
		thumb := traffic[proto+"@thumbnail"]
		if thumb >= full {
			t.Errorf("%s: thumbnail traffic %d not below full %d", proto, thumb, full)
		}
	}
}

func TestContentAdaptationAppMetaValidation(t *testing.T) {
	s := caServer(t)
	if _, err := s.MeasureContentAdaptationAppMeta(0); err == nil {
		t.Error("zero samples accepted")
	}
	plain := testServer(t)
	if _, err := plain.MeasureContentAdaptationAppMeta(3); err == nil {
		t.Error("CA AppMeta measured without transcoders")
	}
}

func TestEncodeWithTranscoderChain(t *testing.T) {
	s := caServer(t)
	// Thumbnail + gzip: payload must decode (with gzip) into the
	// thumbnail rendition of the current version.
	res, err := s.Encode([]string{"pad-thumb", "pad-gzip@thumbnail"}, "page-000", 0)
	if err != nil {
		t.Fatal(err)
	}
	gz, err := codec.New("gzip")
	if err != nil {
		t.Fatal(err)
	}
	got, err := gz.Decode(nil, res.Payload)
	if err != nil {
		t.Fatal(err)
	}
	cur, _, err := s.Current("page-000")
	if err != nil {
		t.Fatal(err)
	}
	tc, err := transcode.New(transcode.NameThumbnail)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tc.Transform(cur)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("chained encode did not produce the thumbnail rendition")
	}
	if len(want) >= len(cur) {
		t.Fatal("thumbnail rendition not smaller")
	}
}

func TestEncodeChainDifferential(t *testing.T) {
	s := caServer(t)
	// Client holds the thumbnail rendition of v1 and requests the update
	// with bitmap: the server must diff thumbnail(v1) vs thumbnail(v2).
	cold, err := s.Encode([]string{"pad-thumb", "pad-bitmap@thumbnail"}, "page-001", 0)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := s.Encode([]string{"pad-thumb", "pad-bitmap@thumbnail"}, "page-001", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Payload) >= len(cold.Payload) {
		t.Fatalf("chained differential (%d) not smaller than cold (%d)", len(diff.Payload), len(cold.Payload))
	}
	// Reconstruct: thumbnail(v1) as basis.
	v1, err := s.version("page-001", 1)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := transcode.New(transcode.NameThumbnail)
	if err != nil {
		t.Fatal(err)
	}
	oldThumb, err := tc.Transform(v1)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := codec.New("bitmap")
	if err != nil {
		t.Fatal(err)
	}
	got, err := bm.Decode(oldThumb, diff.Payload)
	if err != nil {
		t.Fatal(err)
	}
	cur, _, err := s.Current("page-001")
	if err != nil {
		t.Fatal(err)
	}
	want, err := tc.Transform(cur)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("chained differential reconstruction mismatch")
	}
}

func TestEncodeChainRejectsTwoTranscoders(t *testing.T) {
	s := caServer(t)
	_, err := s.Encode([]string{"pad-thumb", "pad-full", "pad-gzip"}, "page-000", 0)
	if err == nil {
		t.Fatal("two transcoders in one path accepted")
	}
}

func TestEncodeFullRenditionMatchesPlain(t *testing.T) {
	s := caServer(t)
	plain, err := s.Encode([]string{"pad-gzip"}, "page-002", 0)
	if err != nil {
		t.Fatal(err)
	}
	viaFull, err := s.Encode([]string{"pad-full", "pad-gzip"}, "page-002", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Payload, viaFull.Payload) {
		t.Fatal("full-fidelity chain differs from plain encode")
	}
}

func TestProactiveWithContentAdaptation(t *testing.T) {
	s := caServer(t)
	if err := s.SetStrategy(Proactive); err != nil {
		t.Fatal(err)
	}
	res, err := s.Encode([]string{"pad-thumb", "pad-vary@thumbnail"}, "page-000", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Precomputed {
		t.Fatal("chained proactive encode not served from precomputed store")
	}
	// Must decode identically to the reactive result.
	reactive := testServer(t)
	if err := reactive.DeployContentAdaptation("1.0"); err != nil {
		t.Fatal(err)
	}
	_ = reactive
}

func TestMeasureAppMetaExcludesTranscoders(t *testing.T) {
	s := caServer(t)
	app, err := s.MeasureAppMeta(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(app.PADs) != 4 {
		t.Fatalf("flat AppMeta has %d PADs after CA deployment, want 4", len(app.PADs))
	}
	for _, p := range app.PADs {
		if p.Protocol == transcode.NameIdentity || p.Protocol == transcode.NameThumbnail {
			t.Errorf("transcoder %s leaked into flat AppMeta", p.ID)
		}
	}
}

func TestNegotiationPicksThumbnailForWeakClient(t *testing.T) {
	// End-to-end model check: with the two-level PAT, a PDA on Bluetooth
	// should prefer a thumbnail path (half the traffic), while the desktop
	// on LAN keeps full fidelity.
	s := caServer(t)
	app, err := s.MeasureContentAdaptationAppMeta(3)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := core.BuildPAT(app)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := core.ContentAdaptationMatrices()
	if err != nil {
		t.Fatal(err)
	}
	model := core.OverheadModel{
		Matrices: ms, Rho: 0.8, ServerCPUMHz: 2000,
		IncludeServerComp: true, SessionRequests: 75,
	}
	pda := core.Env{
		Dev:  core.DevMeta{OSType: core.OSWinCE, CPUType: core.CPUTypePXA255, CPUMHz: 400, MemMB: 64},
		Ntwk: core.NtwkMeta{NetworkType: core.NetBluetooth, BandwidthKbps: 723},
	}
	desktop := core.Env{
		Dev:  core.DevMeta{OSType: core.OSFedora, CPUType: core.CPUTypeP4, CPUMHz: 2000, MemMB: 512},
		Ntwk: core.NtwkMeta{NetworkType: core.NetLAN, BandwidthKbps: 100000},
	}
	resPDA, err := core.FindPath(pat, model, pda)
	if err != nil {
		t.Fatal(err)
	}
	if resPDA.PADs[0].Protocol != transcode.NameThumbnail {
		t.Errorf("PDA rendition = %s, want thumbnail (path %v)", resPDA.PADs[0].Protocol, resPDA.PADs)
	}
	resDesk, err := core.FindPath(pat, model, desktop)
	if err != nil {
		t.Fatal(err)
	}
	if resDesk.PADs[0].Protocol != transcode.NameIdentity {
		t.Errorf("desktop rendition = %s, want full (path %v)", resDesk.PADs[0].Protocol, resDesk.PADs)
	}
}

var _ = workload.DefaultMutation // keep import symmetry with sibling test file

func TestDeployExtraPADCascadeVMOnly(t *testing.T) {
	// The cascade protocol has no native codec: the server must deploy
	// and serve it through its own mobile code.
	s := testServer(t)
	meta, err := s.DeployExtraPAD(mobilecode.CascadeSpec(), "1.0", 3)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Protocol != "cascade" {
		t.Fatalf("protocol = %s", meta.Protocol)
	}
	if meta.Overhead.TrafficBytes <= 0 {
		t.Fatal("cascade traffic not measured")
	}
	// The cascade delta must be the smallest of all measured protocols.
	flat, err := s.MeasureAppMeta(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range flat.PADs {
		if p.Protocol == codec.NameDirect {
			continue
		}
		if p.Protocol != "cascade" && meta.Overhead.TrafficBytes >= p.Overhead.TrafficBytes {
			t.Errorf("cascade traffic %d not below %s's %d", meta.Overhead.TrafficBytes, p.Protocol, p.Overhead.TrafficBytes)
		}
	}
	// Serve a request with it and reconstruct client-side via a freshly
	// loaded copy of the same module.
	res, err := s.Encode([]string{"pad-cascade"}, "page-000", 1)
	if err != nil {
		t.Fatal(err)
	}
	trust := mobilecode.NewTrustList()
	entity, key := s.TrustedKey()
	if err := trust.Add(entity, key); err != nil {
		t.Fatal(err)
	}
	// Decode using the native primitive pair (gzip then vary), proving
	// the wire format; the trust list above mirrors what a real client
	// would install before loading the module itself.
	_ = trust
	gz, err := codec.NewGzipLevel(6)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := gz.Decode(nil, res.Payload)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := codec.New(codec.NameVaryBlock)
	if err != nil {
		t.Fatal(err)
	}
	old, err := s.version("page-000", 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := vb.Decode(old, inner)
	if err != nil {
		t.Fatal(err)
	}
	cur, _, err := s.Current("page-000")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cur) {
		t.Fatal("VM-served cascade payload did not reconstruct")
	}
}

func TestDeployExtraPADRejectsDuplicate(t *testing.T) {
	s := testServer(t)
	if _, err := s.DeployExtraPAD(mobilecode.RsyncSpec(), "1.0", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DeployExtraPAD(mobilecode.RsyncSpec(), "1.0", 2); err == nil {
		t.Fatal("duplicate extra PAD accepted")
	}
	if _, err := s.DeployExtraPAD(mobilecode.CascadeSpec(), "1.0", 0); err == nil {
		t.Fatal("zero samples accepted")
	}
}

// TestPretestProductsPinned pins the SHA-256 of the JSON encoding of every
// pre-test product on one fixture: the flat and two-level AppMeta, the
// rsync and cascade PADMeta, and the flat AppMeta with both extras. Any
// change to what the proxy is told fails here.
func TestPretestProductsPinned(t *testing.T) {
	s := caServer(t)
	products := []struct {
		name    string
		measure func() (any, error)
		want    string
	}{
		{"flat", func() (any, error) { return s.MeasureAppMeta(3) },
			"3f82fe2521f6716b9e3d7d784984f54ca2df0d932f8450b2bbf356675c97353c"},
		{"two-level", func() (any, error) { return s.MeasureContentAdaptationAppMeta(3) },
			"a4fd59125843b063137cd50ef2dd4b0175f9feae535ec64502f590a3278deade"},
		{"rsync", func() (any, error) { return s.DeployExtraPAD(mobilecode.RsyncSpec(), "1.0", 3) },
			"4aeb288def080f809cdf293df6c3831a419c0ada123f4c9f12febb3334c3b799"},
		{"cascade", func() (any, error) { return s.DeployExtraPAD(mobilecode.CascadeSpec(), "1.0", 3) },
			"32bfe6065ea539c2f1fb373fca8112c8d1a0e937cf39adc5a1ff6c8c327160dc"},
		{"flat with extras", func() (any, error) { return s.MeasureAppMeta(3) },
			"8027f1f4dbb3e862715de7a4db4fbf0ed3b15736c1f72b36d4ed55ad5eee1dea"},
	}
	for _, p := range products {
		v, err := p.measure()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		enc, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(enc); hex.EncodeToString(sum[:]) != p.want {
			t.Errorf("%s: sha256 %x, want %s\n%s", p.name, sum, p.want, enc)
		}
	}
}

// A PAD or transcoder registered on a Proactive server joins the
// precomputed store: the proactive model leaves server compute out of Eq.
// 3, so a path the server would have to encode per request must not be
// negotiable. Requests served while the store is rebuilt stay
// precomputed.
func TestDeployOnProactiveServerIsPrecomputed(t *testing.T) {
	s := testServer(t)
	if err := s.SetStrategy(Proactive); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.Encode([]string{"pad-gzip"}, "page-001", 1)
				if err != nil || !res.Precomputed {
					t.Errorf("encode during registration: precomputed %v, %v", res.Precomputed, err)
					return
				}
			}
		}()
	}
	_, err := s.DeployExtraPAD(mobilecode.RsyncSpec(), "1.0", 2)
	if err == nil {
		err = s.DeployContentAdaptation("1.0")
	}
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range [][]string{
		{"pad-rsync"},
		{"pad-thumb", "pad-gzip@thumbnail"},
		{"pad-thumb", "pad-rsync@thumbnail"},
	} {
		res, err := s.Encode(path, "page-000", 1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Precomputed {
			t.Errorf("%v: served reactively on a Proactive server", path)
		}
	}
	if n := s.Stats().ReactiveEncod; n != 0 {
		t.Errorf("%d reactive encodes on a Proactive server", n)
	}
}
