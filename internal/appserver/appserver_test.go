package appserver

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fractal/internal/cdn"
	"fractal/internal/codec"
	"fractal/internal/inp"
	"fractal/internal/mobilecode"
	"fractal/internal/workload"
)

func testCorpora(t testing.TB, pages int) (*workload.Corpus, *workload.Corpus) {
	t.Helper()
	v1, err := workload.Generate(workload.Config{
		Pages: pages, TextBytes: 2048, Images: 2, ImageBytes: 16384, Seed: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := workload.MutateCorpus(v1, workload.DefaultMutation(101))
	if err != nil {
		t.Fatal(err)
	}
	return v1, v2
}

func testServer(t testing.TB) *Server {
	t.Helper()
	signer, err := mobilecode.NewSigner("app-server")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New("webapp", signer)
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := testCorpora(t, 4)
	if err := s.InstallCorpus(v1, v2); err != nil {
		t.Fatal(err)
	}
	if err := s.DeployPADs("1.0"); err != nil {
		t.Fatal(err)
	}
	return s
}

// version returns a specific installed version's data (1-indexed). Encode
// reads versions inside its own critical section; only tests need one by
// number.
func (s *Server) version(resource string, v int) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	chain := s.resources[resource]
	if v < 1 || v > len(chain) {
		return nil, fmt.Errorf("appserver: resource %q has no version %d", resource, v)
	}
	return chain[v-1], nil
}

func TestNewValidation(t *testing.T) {
	signer, err := mobilecode.NewSigner("e")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New("", signer); err == nil {
		t.Error("empty app id accepted")
	}
	if _, err := New("app", nil); err == nil {
		t.Error("nil signer accepted")
	}
}

func TestInstallCorpusVersioning(t *testing.T) {
	s := testServer(t)
	if s.Resources() != 4 {
		t.Fatalf("resources = %d, want 4", s.Resources())
	}
	data, v, err := s.Current("page-000")
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("current version = %d, want 2", v)
	}
	if len(data) == 0 {
		t.Fatal("empty current version")
	}
	if _, _, err := s.Current("page-999"); err == nil {
		t.Fatal("missing resource served")
	}
	// A later install appends as a content update.
	v1, _ := testCorpora(t, 2)
	if err := s.InstallCorpus(v1); err != nil {
		t.Fatalf("appending an update failed: %v", err)
	}
	if _, v, err := s.Current("page-000"); err != nil || v != 3 {
		t.Fatalf("after update version = %d, %v; want 3", v, err)
	}
	// page-002/003 were not in the 2-page update; their chains stay at 2.
	if _, v, err := s.Current("page-003"); err != nil || v != 2 {
		t.Fatalf("untouched resource version = %d, %v; want 2", v, err)
	}
	if err := s.InstallCorpus(); err == nil {
		t.Fatal("empty install accepted")
	}
}

func TestDeployPADsAndIDs(t *testing.T) {
	s := testServer(t)
	ids := s.PADIDs()
	if len(ids) != 4 {
		t.Fatalf("deployed %d PADs, want 4", len(ids))
	}
}

func TestMeasureAppMeta(t *testing.T) {
	s := testServer(t)
	app, err := s.MeasureAppMeta(4)
	if err != nil {
		t.Fatal(err)
	}
	if app.AppID != "webapp" || len(app.PADs) != 4 {
		t.Fatalf("app meta = %s with %d PADs", app.AppID, len(app.PADs))
	}
	byProto := map[string]int64{}
	for _, p := range app.PADs {
		if p.URL == "" || p.Size == 0 {
			t.Errorf("PAD %s missing URL or size", p.ID)
		}
		if p.Digest == [20]byte{} {
			t.Errorf("PAD %s has zero digest", p.ID)
		}
		byProto[p.Protocol] = p.Overhead.TrafficBytes + p.Overhead.UpstreamBytes
	}
	// The measured traffic must reproduce the Figure 11(a) ordering.
	if !(byProto[codec.NameDirect] > byProto[codec.NameGzip] &&
		byProto[codec.NameGzip] > byProto[codec.NameBitmap] &&
		byProto[codec.NameBitmap] > byProto[codec.NameVaryBlock]) {
		t.Fatalf("measured traffic ordering wrong: %v", byProto)
	}
	// Vary-sized blocking's server compute must dominate.
	var varyServer, gzipServer int64
	for _, p := range app.PADs {
		switch p.Protocol {
		case codec.NameVaryBlock:
			varyServer = p.Overhead.ServerCompStd.Nanoseconds()
		case codec.NameGzip:
			gzipServer = p.Overhead.ServerCompStd.Nanoseconds()
		}
	}
	if varyServer < 10*gzipServer {
		t.Fatalf("vary server compute %d not dominant over gzip %d", varyServer, gzipServer)
	}
}

func TestMeasureAppMetaErrors(t *testing.T) {
	signer, err := mobilecode.NewSigner("e")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New("app", signer)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.MeasureAppMeta(0); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := s.MeasureAppMeta(4); err == nil {
		t.Error("measuring with no PADs succeeded")
	}
	if err := s.DeployPADs("1.0"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MeasureAppMeta(4); err == nil {
		t.Error("measuring with no content succeeded")
	}
}

func TestPublishPADs(t *testing.T) {
	s := testServer(t)
	topo, err := cdn.DefaultTopology(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PublishPADs(topo.Origin()); err != nil {
		t.Fatal(err)
	}
	paths := topo.Origin().Paths()
	if len(paths) != 4 {
		t.Fatalf("published %d objects, want 4", len(paths))
	}
	for _, p := range paths {
		if !strings.HasPrefix(p, "/pads/pad-") {
			t.Errorf("unexpected path %s", p)
		}
	}
	// Published modules must unpack and verify.
	data, err := topo.Origin().Get("/pads/pad-gzip")
	if err != nil {
		t.Fatal(err)
	}
	m, err := mobilecode.Unpack(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != "pad-gzip" {
		t.Fatalf("unpacked id = %s", m.ID)
	}
	if err := s.PublishPADs(nil); err == nil {
		t.Error("nil origin accepted")
	}
}

func TestEncodeReactiveRoundTrip(t *testing.T) {
	s := testServer(t)
	cur, curV, err := s.Current("page-001")
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []string{"pad-direct", "pad-gzip", "pad-bitmap", "pad-vary"} {
		// Cold start (client holds nothing).
		res, err := s.Encode([]string{proto}, "page-001", 0)
		if err != nil {
			t.Fatalf("%s cold: %v", proto, err)
		}
		if res.Version != curV || res.PADID != proto {
			t.Fatalf("%s: version/pad = %d/%s", proto, res.Version, res.PADID)
		}
		impl, err := codec.New(map[string]string{
			"pad-direct": "direct", "pad-gzip": "gzip",
			"pad-bitmap": "bitmap", "pad-vary": "varyblock",
		}[proto])
		if err != nil {
			t.Fatal(err)
		}
		got, err := impl.Decode(nil, res.Payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", proto, err)
		}
		if !bytes.Equal(got, cur) {
			t.Fatalf("%s: cold round trip mismatch", proto)
		}
	}
}

func TestEncodeDifferentialSmallerThanCold(t *testing.T) {
	s := testServer(t)
	cold, err := s.Encode([]string{"pad-vary"}, "page-000", 0)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := s.Encode([]string{"pad-vary"}, "page-000", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff.Payload) >= len(cold.Payload)/2 {
		t.Fatalf("differential payload %d not much smaller than cold %d", len(diff.Payload), len(cold.Payload))
	}
}

func TestEncodeErrors(t *testing.T) {
	s := testServer(t)
	if _, err := s.Encode([]string{"pad-ghost"}, "page-000", 0); err == nil {
		t.Error("undeployed PAD accepted")
	}
	if _, err := s.Encode([]string{"pad-direct"}, "page-404", 0); err == nil {
		t.Error("missing resource served")
	}
	if _, err := s.Encode([]string{"pad-direct"}, "page-000", 99); err == nil {
		t.Error("future version claim accepted")
	}
	if _, err := s.Encode([]string{"pad-direct"}, "page-000", -1); err == nil {
		t.Error("negative version accepted")
	}
}

func TestEncodeClientAlreadyCurrent(t *testing.T) {
	s := testServer(t)
	res, err := s.Encode([]string{"pad-bitmap"}, "page-000", 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 2 {
		t.Fatalf("version = %d, want 2", res.Version)
	}
}

func TestProactiveStrategy(t *testing.T) {
	s := testServer(t)
	if s.Strategy() != Reactive {
		t.Fatal("default strategy not reactive")
	}
	if err := s.SetStrategy(Proactive); err != nil {
		t.Fatal(err)
	}
	if s.Strategy().String() != "proactive" {
		t.Fatal("strategy string wrong")
	}
	res, err := s.Encode([]string{"pad-vary"}, "page-002", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Precomputed {
		t.Fatal("proactive encode was not served from the precomputed store")
	}
	st := s.Stats()
	if st.PrecomputeHits != 1 || st.ReactiveEncod != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Equivalence: proactive and reactive payloads decode identically.
	cur, _, err := s.Current("page-002")
	if err != nil {
		t.Fatal(err)
	}
	old, err := s.version("page-002", 1)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := codec.New("varyblock")
	if err != nil {
		t.Fatal(err)
	}
	got, err := vb.Decode(old, res.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cur) {
		t.Fatal("precomputed payload does not reconstruct current version")
	}
	if err := s.SetStrategy(Strategy(42)); err == nil {
		t.Error("bogus strategy accepted")
	}
}

func TestINPServerSession(t *testing.T) {
	s := testServer(t)
	srv, err := NewINPServer(s, 8, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Logf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := inp.NewConn(conn)

	var rep inp.AppRep
	err = c.Call(inp.MsgAppReq,
		inp.AppReq{AppID: "webapp", Resource: "page-000", ProtocolIDs: []string{"pad-gzip"}},
		inp.MsgAppRep, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PADID != "pad-gzip" || rep.Version != 2 {
		t.Fatalf("rep = %+v", rep)
	}
	gz, err := codec.New("gzip")
	if err != nil {
		t.Fatal(err)
	}
	cur, _, err := s.Current("page-000")
	if err != nil {
		t.Fatal(err)
	}
	got, err := gz.Decode(nil, rep.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cur) {
		t.Fatal("TCP session round trip mismatch")
	}

	// Errors are in-band, session continues.
	err = c.Call(inp.MsgAppReq,
		inp.AppReq{AppID: "wrong", Resource: "page-000"},
		inp.MsgAppRep, &rep)
	if err == nil || !strings.Contains(err.Error(), "unknown application") {
		t.Fatalf("err = %v, want unknown application", err)
	}
	err = c.Call(inp.MsgAppReq,
		inp.AppReq{AppID: "webapp", Resource: "page-000", ProtocolIDs: []string{"pad-gzip"}},
		inp.MsgAppRep, &rep)
	if err != nil {
		t.Fatalf("session did not survive in-band error: %v", err)
	}
	if st := s.Stats(); st.Requests < 2 {
		t.Fatalf("requests = %d", st.Requests)
	}
}

func TestINPServerIdleTimeout(t *testing.T) {
	s := testServer(t)
	srv, err := NewINPServer(s, 4, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetIdleTimeout(150 * time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() { _ = srv.Close(); <-done }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle session kept open")
	} else if strings.Contains(err.Error(), "i/o timeout") {
		t.Fatal("server never dropped the idle session")
	}
}

func TestLongVersionChainDifferentials(t *testing.T) {
	// A client may hold ANY historical version; the server must diff the
	// current version against exactly that basis.
	signer, err := mobilecode.NewSigner("chain")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New("webapp", signer)
	if err != nil {
		t.Fatal(err)
	}
	v, err := workload.Generate(workload.Config{Pages: 1, TextBytes: 1024, Images: 2, ImageBytes: 16384, Seed: 70})
	if err != nil {
		t.Fatal(err)
	}
	chain := []*workload.Corpus{v}
	for i := 1; i < 5; i++ {
		v, err = workload.MutateCorpus(v, workload.DefaultMutation(int64(70+i)))
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, v)
	}
	if err := s.InstallCorpus(chain...); err != nil {
		t.Fatal(err)
	}
	if err := s.DeployPADs("1.0"); err != nil {
		t.Fatal(err)
	}
	cur, curV, err := s.Current("page-000")
	if err != nil {
		t.Fatal(err)
	}
	if curV != 5 {
		t.Fatalf("current = v%d, want v5", curV)
	}
	vb, err := codec.New("varyblock")
	if err != nil {
		t.Fatal(err)
	}
	var prevLen int
	for have := 0; have <= 5; have++ {
		res, err := s.Encode([]string{"pad-vary"}, "page-000", have)
		if err != nil {
			t.Fatalf("have=%d: %v", have, err)
		}
		old := []byte(nil)
		if have > 0 {
			old = chain[have-1].Pages[0].Bytes()
		}
		got, err := vb.Decode(old, res.Payload)
		if err != nil {
			t.Fatalf("have=%d: decode: %v", have, err)
		}
		if !bytes.Equal(got, cur) {
			t.Fatalf("have=%d: reconstruction mismatch", have)
		}
		if have == 0 {
			prevLen = len(res.Payload)
			continue
		}
		// A newer basis never costs more than the cold start.
		if len(res.Payload) > prevLen {
			t.Logf("have=%d payload %d > cold %d (acceptable but unusual)", have, len(res.Payload), prevLen)
		}
	}
}

func TestEncodeConcurrentSafety(t *testing.T) {
	s := testServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pads := []string{"pad-direct", "pad-gzip", "pad-bitmap", "pad-vary"}
			res := fmt.Sprintf("page-%03d", i%4)
			r, err := s.Encode([]string{pads[i%4]}, res, i%3)
			if err != nil {
				errs <- err
				return
			}
			if len(r.Payload) == 0 && i%4 != 0 {
				errs <- fmt.Errorf("goroutine %d: empty payload", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestProactiveStoreRefreshedOnNewVersion(t *testing.T) {
	s := testServer(t)
	if err := s.SetStrategy(Proactive); err != nil {
		t.Fatal(err)
	}
	// Serve once from the precomputed store.
	if _, err := s.Encode([]string{"pad-gzip"}, "page-000", 0); err != nil {
		t.Fatal(err)
	}
	// A third content version arrives.
	v1, v2 := testCorpora(t, 4)
	_ = v1
	v3, err := workload.MutateCorpus(v2, workload.DefaultMutation(102))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallCorpus(v3); err != nil {
		t.Fatal(err)
	}
	res, err := s.Encode([]string{"pad-gzip"}, "page-000", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 3 {
		t.Fatalf("version = %d, want 3", res.Version)
	}
	gz, err := codec.New("gzip")
	if err != nil {
		t.Fatal(err)
	}
	got, err := gz.Decode(nil, res.Payload)
	if err != nil {
		t.Fatal(err)
	}
	want := v3.Pages[0].Bytes()
	if !bytes.Equal(got, want) {
		t.Fatal("proactive store served a stale version after content update")
	}
	if !res.Precomputed {
		t.Fatal("refreshed store not used")
	}
}

// TestProactivePayloadsEqualReactive pins the proactive store against the
// strategy it replaces: for every (transcoder, PAD, resource, have) the
// precomputed payload is byte-equal to a fresh reactive encode — including
// the base-independent protocols, which precompute encodes once per
// version and files under every have as the same slice.
func TestProactivePayloadsEqualReactive(t *testing.T) {
	s := testServer(t)
	_, v2 := testCorpora(t, 4)
	v3, err := workload.MutateCorpus(v2, workload.DefaultMutation(102))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallCorpus(v3); err != nil {
		t.Fatal(err)
	}
	if err := s.DeployContentAdaptation("1.0"); err != nil {
		t.Fatal(err)
	}
	type request struct {
		path     string
		resource string
		have     int
	}
	var reqs []request
	for _, prefix := range []string{"", "pad-full ", "pad-thumb "} {
		for _, id := range []string{"pad-direct", "pad-gzip", "pad-bitmap", "pad-vary"} {
			for _, p := range v3.Pages {
				for have := 0; have <= 3; have++ {
					reqs = append(reqs, request{prefix + id, p.ID, have})
				}
			}
		}
	}
	encodeAll := func(wantPrecomputed bool) [][]byte {
		out := make([][]byte, len(reqs))
		for i, r := range reqs {
			res, err := s.Encode(strings.Fields(r.path), r.resource, r.have)
			if err != nil {
				t.Fatalf("%+v: %v", r, err)
			}
			if res.Precomputed != wantPrecomputed {
				t.Fatalf("%+v: precomputed = %v", r, res.Precomputed)
			}
			out[i] = res.Payload
		}
		return out
	}
	reactive := encodeAll(false)
	if err := s.SetStrategy(Proactive); err != nil {
		t.Fatal(err)
	}
	proactive := encodeAll(true)
	for i, r := range reqs {
		if !bytes.Equal(proactive[i], reactive[i]) {
			t.Fatalf("%+v: precomputed payload differs from the reactive encode", r)
		}
		once := strings.HasSuffix(r.path, "pad-direct") || strings.HasSuffix(r.path, "pad-gzip")
		if r.have > 0 && once && &proactive[i][0] != &proactive[i-1][0] {
			t.Fatalf("%+v: a base-independent payload is stored once per have, not once", r)
		}
	}
}

// TestProactiveEncodeConsistentUnderInstall pins the reply invariant under
// a live update: whatever version number a reply carries, its payload
// decodes to that version's content. Reading the current version number and
// the precomputed payload in separate critical sections lets an
// InstallCorpus land between them and produce version N+1's payload
// labelled N — a client would commit the new bytes under the old number and
// decode its next differential against a base it does not hold.
func TestProactiveEncodeConsistentUnderInstall(t *testing.T) {
	const installs = 37
	v, err := workload.Generate(workload.Config{Pages: 1, TextBytes: 1024, Images: 1, ImageBytes: 8192, Seed: 90})
	if err != nil {
		t.Fatal(err)
	}
	versions := []*workload.Corpus{v}
	contents := [][]byte{v.Pages[0].Bytes()} // contents[i] is version i+1
	for i := 1; i <= installs; i++ {
		if v, err = workload.MutateCorpus(v, workload.DefaultMutation(int64(90+i))); err != nil {
			t.Fatal(err)
		}
		versions = append(versions, v)
		contents = append(contents, v.Pages[0].Bytes())
	}
	signer, err := mobilecode.NewSigner("live-update")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New("webapp", signer)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallCorpus(versions[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.DeployPADs("1.0"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetStrategy(Proactive); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served atomic.Int64
	// A requester loops one kind of request until stopped: cold (holds
	// nothing) or differential (holds the version before the newest it has
	// seen). The loop has to stay about as short as Encode itself, or a
	// requester is rarely inside Encode when an install arrives; proactive
	// replies share the store's payload slices, so each distinct (have,
	// version, payload) is decoded the first time it is seen and recognised
	// by its backing array afterwards.
	requester := func(padID, protocol string, differential bool) {
		defer wg.Done()
		dec, err := codec.New(protocol)
		if err != nil {
			t.Error(err)
			return
		}
		type reply struct {
			have, version int
			payload       *byte
		}
		checked := map[reply]bool{}
		seen := 1
		for {
			select {
			case <-stop:
				return
			default:
			}
			have := 0
			if differential {
				have = seen - 1
			}
			res, err := s.Encode([]string{padID}, "page-000", have)
			if err != nil {
				t.Error(err)
				return
			}
			if len(res.Payload) == 0 {
				t.Errorf("%s have=%d: empty payload", padID, have)
				return
			}
			served.Add(1)
			seen = res.Version
			key := reply{have, res.Version, &res.Payload[0]}
			if checked[key] {
				continue
			}
			checked[key] = true
			var old []byte
			if have > 0 {
				old = contents[have-1]
			}
			got, err := dec.Decode(old, res.Payload)
			if err != nil || !bytes.Equal(got, contents[res.Version-1]) {
				t.Errorf("%s have=%d: reply labelled version %d does not carry that version's content (decode error: %v)", padID, have, res.Version, err)
				return
			}
		}
	}
	wg.Add(3)
	go requester("pad-gzip", codec.NameGzip, false)
	go requester("pad-gzip", codec.NameGzip, false)
	go requester("pad-bitmap", codec.NameBitmap, true)
	for _, v := range versions[1:] {
		// Let the requesters get back up to speed, so each install lands
		// at an arbitrary point of their loops. A failed requester has
		// stopped serving; so stop waiting for it.
		for target := served.Load() + 100; served.Load() < target && !t.Failed(); {
			runtime.Gosched()
		}
		if err := s.InstallCorpus(v); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
