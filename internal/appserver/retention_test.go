package appserver

import (
	"runtime"
	"strings"
	"testing"

	"fractal/internal/inp"
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
