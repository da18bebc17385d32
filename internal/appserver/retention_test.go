package appserver

import (
	"bytes"
	"fmt"
	"maps"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fractal/internal/codec"
	"fractal/internal/inp"
	"fractal/internal/mobilecode"
	"fractal/internal/workload"
)

// TestFetchContentMapsRequest pins the one in-process content path: the
// reply carries exactly what Encode decided, Base included, and a request
// for another application is refused before anything is encoded.
func TestFetchContentMapsRequest(t *testing.T) {
	s := testServer(t)
	for _, have := range []int{0, 1, 2} {
		req := inp.AppReq{AppID: "webapp", Resource: "page-001", ProtocolIDs: []string{"pad-bitmap"}, HaveVersion: have}
		rep, err := s.FetchContent(req)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Encode(req.ProtocolIDs, req.Resource, have)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Resource != req.Resource || rep.Version != res.Version || rep.Base != res.Base || rep.PADID != res.PADID {
			t.Fatalf("have=%d: reply %+v does not match encode %+v", have, rep, res)
		}
		if rep.Base != have {
			t.Fatalf("have=%d: Base %d for a held version", have, rep.Base)
		}
	}
	before := s.Stats().Requests
	_, err := s.FetchContent(inp.AppReq{AppID: "ghost", Resource: "page-001", ProtocolIDs: []string{"pad-direct"}})
	if err == nil || !strings.Contains(err.Error(), "unknown application") {
		t.Fatalf("foreign application: err = %v", err)
	}
	if s.Stats().Requests != before {
		t.Fatal("a foreign application's request reached the encoder")
	}
}

// TestInstallSoakHoldsTwoVersions installs 200 content updates and pins
// the retention bound: every resource holds at most its two newest
// versions, the resource table does not grow, and the post-GC heap stops
// growing. Keeping every version would add about 200 KB per round.
func TestInstallSoakHoldsTwoVersions(t *testing.T) {
	const rounds = 200
	s := testServer(t)
	_, cur := testCorpora(t, 4)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var settled uint64
	for round := 1; round <= rounds; round++ {
		next, err := workload.MutateCorpus(cur, workload.DefaultMutation(int64(1000+round)))
		if err != nil {
			t.Fatal(err)
		}
		cur = next
		if err := s.InstallCorpus(cur); err != nil {
			t.Fatal(err)
		}
		if round == rounds/4 {
			settled = heap()
		}
	}
	grown := int64(heap()) - int64(settled)
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.resources) != 4 {
		t.Fatalf("resource table holds %d entries, want 4", len(s.resources))
	}
	for id, rec := range s.resources {
		if rec.version != rounds+2 {
			t.Fatalf("%s at v%d, want v%d", id, rec.version, rounds+2)
		}
		if rec.cur == nil || rec.prev == nil || rec.store != nil {
			t.Fatalf("%s: record %+v is not the newest two versions", id, rec)
		}
	}
	perRound := int64(0)
	for _, p := range cur.Pages {
		perRound += int64(len(p.Bytes()))
	}
	// Keeping every version would grow the heap by perRound for each of
	// the last three quarters of the rounds; allow a tenth of that.
	if limit := perRound * rounds * 3 / 4 / 10; grown > limit {
		t.Fatalf("post-GC heap grew %d B over the last %d installs (limit %d): old versions are retained", grown, rounds*3/4, limit)
	}
}

// TestProactiveStoreHoldsWindow: the precomputed store keeps encodings
// only for a client holding nothing, the previous version or the newest
// one, and a claim outside that window is served the cold entry with
// Base 0.
func TestProactiveStoreHoldsWindow(t *testing.T) {
	s := testServer(t)
	if err := s.SetStrategy(Proactive); err != nil {
		t.Fatal(err)
	}
	_, v2 := testCorpora(t, 4)
	v3, err := workload.MutateCorpus(v2, workload.DefaultMutation(102))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallCorpus(v3); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	for id, rec := range s.resources {
		if len(rec.store) != 4*3 {
			t.Errorf("%s: store holds %d encodings, want 4 PADs × 3 haves", id, len(rec.store))
		}
		for k := range rec.store {
			if k.have != 0 && k.have != 2 && k.have != 3 {
				t.Errorf("%s: store keeps an encoding for have=%d", id, k.have)
			}
		}
	}
	s.mu.RUnlock()
	before := s.Stats().ColdFallbacks
	stale, err := s.Encode([]string{"pad-bitmap"}, "page-000", 1)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s.Encode([]string{"pad-bitmap"}, "page-000", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !stale.Precomputed || stale.Base != 0 || &stale.Payload[0] != &cold.Payload[0] {
		t.Fatalf("out-of-window claim: precomputed %v, Base %d, cold entry %v", stale.Precomputed, stale.Base, &stale.Payload[0] == &cold.Payload[0])
	}
	if n := s.Stats().ColdFallbacks - before; n != 1 {
		t.Fatalf("ColdFallbacks grew by %d, want 1", n)
	}
}

// TestProactiveInstallRebuildsOnlyChanged: an update touching two of four
// resources rebuilds and republishes those two records; the other two —
// bytes and precomputed store — stay the very records served before.
func TestProactiveInstallRebuildsOnlyChanged(t *testing.T) {
	s := testServer(t)
	if err := s.SetStrategy(Proactive); err != nil {
		t.Fatal(err)
	}
	snapshot := func() map[string]*record {
		s.mu.RLock()
		defer s.mu.RUnlock()
		out := map[string]*record{}
		for id, rec := range s.resources {
			out[id] = rec
		}
		return out
	}
	before := snapshot()
	upd, _ := testCorpora(t, 2)
	if err := s.InstallCorpus(upd); err != nil {
		t.Fatal(err)
	}
	after := snapshot()
	for id, rec := range after {
		touched := id == "page-000" || id == "page-001"
		if touched == (rec == before[id]) {
			t.Fatalf("%s: touched %v but record replaced %v", id, touched, rec != before[id])
		}
		if touched && (rec.version != 3 || len(rec.store) == 0) {
			t.Fatalf("%s: rebuilt record at v%d with %d encodings", id, rec.version, len(rec.store))
		}
	}
}

// refusingCodec is direct, except that once armed it refuses to encode
// the newest version of the pages it names; the refusal of slow comes
// late, after the other workers have met theirs.
type refusingCodec struct {
	codec.Costed
	armed  *atomic.Bool
	refuse []string
	slow   string
}

func (r refusingCodec) Encode(old, cur []byte) ([]byte, error) {
	if r.armed.Load() {
		for _, id := range r.refuse {
			if bytes.HasPrefix(cur, []byte("PAGE "+id+" ")) {
				if id == r.slow {
					time.Sleep(50 * time.Millisecond)
				}
				return nil, fmt.Errorf("refusing %s", id)
			}
		}
	}
	return r.Costed.Encode(old, cur)
}

// TestProactiveInstallFailurePublishesNothing pins that a precompute pass
// is all or nothing: when one resource out of many fails to encode,
// InstallCorpus and SetStrategy return the failure of the lowest resource
// (a sequential pass's error), publish no record and no strategy, and
// leave no precompute worker running.
func TestProactiveInstallFailurePublishesNothing(t *testing.T) {
	const pages = 24
	signer, err := mobilecode.NewSigner("app-server")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New("webapp", signer)
	if err != nil {
		t.Fatal(err)
	}
	v1, v2 := testCorpora(t, pages)
	if err := s.InstallCorpus(v1, v2); err != nil {
		t.Fatal(err)
	}
	if err := s.DeployPADs("1.0"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetStrategy(Proactive); err != nil {
		t.Fatal(err)
	}
	direct, err := codec.New(codec.NameDirect)
	if err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	failing := &pad{
		module: s.pads["pad-direct"].module,
		impl:   refusingCodec{Costed: direct, armed: &armed, refuse: []string{"page-019", "page-007", "page-013"}, slow: "page-007"},
	}
	if err := s.register(func() error { s.pads["pad-failing"] = failing; return nil }); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)

	snapshot := func() (map[string]*record, Strategy) {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return maps.Clone(s.resources), s.strategy
	}
	want, _ := snapshot()
	served, err := s.Encode([]string{"pad-gzip"}, "page-010", 1)
	if err != nil || !served.Precomputed || served.Version != 2 {
		t.Fatalf("before: %+v, %v", served, err)
	}
	unchanged := func(step string, st Strategy) {
		t.Helper()
		got, gotSt := snapshot()
		if gotSt != st || len(got) != len(want) {
			t.Fatalf("%s: strategy %v with %d resources, want %v with %d", step, gotSt, len(got), st, len(want))
		}
		for id, rec := range want {
			if got[id] != rec {
				t.Fatalf("%s: record of %s was replaced", step, id)
			}
			if _, v, err := s.Current(id); err != nil || v != 2 {
				t.Fatalf("%s: Current(%s) = v%d, %v; want v2", step, id, v, err)
			}
		}
		res, err := s.Encode([]string{"pad-gzip"}, "page-010", 1)
		if err != nil || res.Version != 2 || res.Precomputed != (st == Proactive) || !bytes.Equal(res.Payload, served.Payload) {
			t.Fatalf("%s: Encode = v%d precomputed %v, %v; want the old v2 payload", step, res.Version, res.Precomputed, err)
		}
	}
	lowest := func(step string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "refusing page-007") {
			t.Fatalf("%s: err = %v, want the failure of page-007", step, err)
		}
	}
	before := runtime.NumGoroutine()

	v3, err := workload.MutateCorpus(v2, workload.DefaultMutation(102))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		lowest("InstallCorpus", s.InstallCorpus(v3))
		unchanged("InstallCorpus", Proactive)
		lowest("SetStrategy", s.SetStrategy(Proactive))
		unchanged("SetStrategy", Proactive)
	}
	// From Reactive, a failed switch leaves the server reactive.
	if err := s.SetStrategy(Reactive); err != nil {
		t.Fatal(err)
	}
	want, _ = snapshot()
	lowest("SetStrategy from reactive", s.SetStrategy(Proactive))
	unchanged("SetStrategy from reactive", Reactive)

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed installs, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
