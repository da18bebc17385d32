package client

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"fractal/internal/appserver"
	"fractal/internal/codec"
	"fractal/internal/core"
	"fractal/internal/inp"
	"fractal/internal/mobilecode"
	"fractal/internal/netsim"
	"fractal/internal/workload"
)

// fixedNegotiator hands out one pinned PAD, so a test drives each
// protocol without steering the proxy's path search.
type fixedNegotiator struct{ meta core.PADMeta }

func (f fixedNegotiator) Negotiate(string, core.Env, int) ([]core.PADMeta, error) {
	return []core.PADMeta{f.meta}, nil
}

// baseRecorder fetches through the in-process app server and remembers
// the last reply's Base; tamper, when set, rewrites each reply first.
type baseRecorder struct {
	app    *appserver.Server
	mu     sync.Mutex
	base   int
	tamper func(*inp.AppRep)
}

func (r *baseRecorder) FetchContent(req inp.AppReq) (inp.AppRep, error) {
	rep, err := r.app.FetchContent(req)
	if err != nil {
		return rep, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tamper != nil {
		r.tamper(&rep)
	}
	r.base = rep.Base
	return rep, nil
}

func (r *baseRecorder) lastBase() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.base
}

// TestTwoUpdatesBehindDecodesCold pins the retention rule end to end: the
// server holds two versions, so a client two updates behind claims one it
// no longer has. The reply says Base 0 and every protocol rebuilds the
// current bytes from the cold payload alone.
func TestTwoUpdatesBehindDecodesCold(t *testing.T) {
	w := buildWorld(t)
	if _, err := w.app.DeployExtraPAD(mobilecode.RsyncSpec(), "1.0", 4); err != nil {
		t.Fatal(err)
	}
	if err := w.app.PublishPADs(w.cdn.Origin()); err != nil {
		t.Fatal(err)
	}
	appMeta, err := w.app.MeasureAppMeta(4)
	if err != nil {
		t.Fatal(err)
	}
	byProto := map[string]core.PADMeta{}
	for _, m := range appMeta.PADs {
		byProto[m.Protocol] = m
	}
	protos := []string{codec.NameDirect, codec.NameGzip, codec.NameBitmap, codec.NameVaryBlock, codec.NameRsync}
	type station struct {
		c   *Client
		rec *baseRecorder
	}
	stations := map[string]station{}
	for _, proto := range protos {
		meta, ok := byProto[proto]
		if !ok {
			t.Fatalf("no deployed PAD speaks %s", proto)
		}
		rec := &baseRecorder{app: w.app}
		c, err := New(pdaConfig(w.trust), fixedNegotiator{meta}, w.fetcher("region-0", netsim.Bluetooth), rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Request("webapp", "page-000"); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		stations[proto] = station{c, rec}
	}

	v3, err := workload.MutateCorpus(w.v2, workload.DefaultMutation(202))
	if err != nil {
		t.Fatal(err)
	}
	v4, err := workload.MutateCorpus(v3, workload.DefaultMutation(203))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.app.InstallCorpus(v3, v4); err != nil {
		t.Fatal(err)
	}
	coldBefore := w.app.Stats().ColdFallbacks
	want := v4.Pages[0].Bytes()
	for _, proto := range protos {
		st := stations[proto]
		if held := st.c.HeldVersion("page-000"); held != 2 {
			t.Fatalf("%s: holds v%d before the update, want v2", proto, held)
		}
		got, err := st.c.Request("webapp", "page-000")
		if err != nil {
			t.Fatalf("%s two updates behind: %v", proto, err)
		}
		if base := st.rec.lastBase(); base != 0 {
			t.Fatalf("%s: reply to a claim of v2 against v4 says Base %d, want 0", proto, base)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: cold reply did not rebuild v4", proto)
		}
		if held := st.c.HeldVersion("page-000"); held != 4 {
			t.Fatalf("%s: holds v%d after the cold reply, want v4", proto, held)
		}
		// Now current, the next request is differential again.
		if _, err := st.c.Request("webapp", "page-000"); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if base := st.rec.lastBase(); base != 4 {
			t.Fatalf("%s: a current client's reply says Base %d, want 4", proto, base)
		}
	}
	if n := w.app.Stats().ColdFallbacks - coldBefore; n != int64(len(protos)) {
		t.Fatalf("ColdFallbacks grew by %d, want %d", n, len(protos))
	}
}

// TestReplyWithForeignBaseRefused: a payload encoded against a version the
// client neither holds nor can do without would decode into garbage, so
// Request refuses it before decoding and keeps the held version.
func TestReplyWithForeignBaseRefused(t *testing.T) {
	w := buildWorld(t)
	rec := &baseRecorder{app: w.app}
	c, err := New(pdaConfig(w.trust), w.proxy, w.fetcher("region-0", netsim.Bluetooth), rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request("webapp", "page-001"); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	for _, base := range []int{1, 3, -1} {
		rec.tamper = func(rep *inp.AppRep) { rep.Base = base }
		_, err := c.Request("webapp", "page-001")
		if err == nil || !strings.Contains(err.Error(), "against version") {
			t.Fatalf("reply with Base %d while holding v2: err = %v, want a refusal", base, err)
		}
	}
	if held := c.HeldVersion("page-001"); held != 2 {
		t.Fatalf("held version %d after refused replies, want 2", held)
	}
	if st := c.Stats(); st.Requests != before.Requests || st.PayloadBytes != before.PayloadBytes {
		t.Fatalf("refused replies were counted as served: %+v -> %+v", before, st)
	}
}

// TestFetchContentErrorPropagation: the in-process content path is the
// app server's own FetchContent, and its refusals reach the caller.
func TestFetchContentErrorPropagation(t *testing.T) {
	w := buildWorld(t)
	c, err := New(pdaConfig(w.trust), w.proxy, w.fetcher("region-0", netsim.Bluetooth), w.app)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request("webapp", "page-404"); err == nil || !strings.Contains(err.Error(), "page-404") {
		t.Fatalf("missing resource: err = %v", err)
	}
	if _, err := w.app.FetchContent(inp.AppReq{AppID: "ghost", Resource: "page-000", ProtocolIDs: []string{"pad-direct"}}); err == nil {
		t.Fatal("in-process fetch for an unknown application succeeded")
	}
	if st := c.Stats(); st.Requests != 0 {
		t.Fatalf("failed fetches counted: %+v", st)
	}
}
