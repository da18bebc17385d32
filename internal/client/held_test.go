package client

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"fractal/internal/codec"
	"fractal/internal/core"
	"fractal/internal/inp"
	"fractal/internal/netsim"
	"fractal/internal/workload"
)

// varyClient is a PDA client pinned to the world's vary-block PAD that
// holds page-000 at v2, fetched cold.
func varyClient(t *testing.T, w *world) (*Client, core.PADMeta) {
	t.Helper()
	appMeta, err := w.app.MeasureAppMeta(4)
	if err != nil {
		t.Fatal(err)
	}
	var meta core.PADMeta
	for _, m := range appMeta.PADs {
		if m.Protocol == codec.NameVaryBlock {
			meta = m
		}
	}
	c, err := New(pdaConfig(w.trust), fixedNegotiator{meta}, w.fetcher("region-0", netsim.Bluetooth), w.app)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request("webapp", "page-000"); err != nil {
		t.Fatal(err)
	}
	return c, meta
}

// held returns the Held a client keeps for resource, nil if none.
func (c *Client) held(resource string) *codec.Held {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.versions[resource].held
}

// TestRequestSplitsHeldVersionOnce: re-requests of a page the client
// holds decode against its held entry, whose split the first re-request
// makes and every later one reuses. The observable is the split's
// allocations: a re-request against a fresh Held allocates three objects
// more than one whose Held is already split — the Held, the stored split
// and its chunk list — where a client that kept no split would allocate
// one more, the Held.
func TestRequestSplitsHeldVersionOnce(t *testing.T) {
	w := buildWorld(t)
	c, meta := varyClient(t, w)
	want := w.v2.Pages[0].Bytes()
	rep, err := w.app.FetchContent(inp.AppReq{AppID: "webapp", Resource: "page-000", ProtocolIDs: []string{meta.ID}, HaveVersion: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Base != 2 || rep.PADID != meta.ID {
		t.Fatalf("reply to a held v2 is base %d via %s, want base 2 via %s", rep.Base, rep.PADID, meta.ID)
	}
	// Replay that one reply, so the server's work is not counted.
	c.content = funcContent(func(inp.AppReq) (inp.AppRep, error) { return rep, nil })
	reRequest := func() {
		got, err := c.Request("webapp", "page-000")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("re-request: %v", err)
		}
	}
	split := testing.AllocsPerRun(20, reRequest)
	fresh := testing.AllocsPerRun(20, func() {
		c.mu.Lock()
		e := c.versions["page-000"]
		c.versions["page-000"] = contentEntry{version: e.version, held: &codec.Held{Data: e.held.Data}}
		c.mu.Unlock()
		reRequest()
	})
	if fresh < split+3 {
		t.Fatalf("allocs per re-request: %v against a split Held, %v against a fresh one; want the fresh one at least 3 more", split, fresh)
	}
}

// TestRequestDropsHeldSplitWithVersion: the split lives on the held
// entry, so a reply that advances the version replaces it, and Forget
// drops it with the entry.
func TestRequestDropsHeldSplitWithVersion(t *testing.T) {
	w := buildWorld(t)
	c, _ := varyClient(t, w)
	if _, err := c.Request("webapp", "page-000"); err != nil { // splits v2
		t.Fatal(err)
	}
	h2 := c.held("page-000")
	if h2 == nil || !bytes.Equal(h2.Data, w.v2.Pages[0].Bytes()) {
		t.Fatal("no held entry for v2")
	}
	if _, err := c.Request("webapp", "page-000"); err != nil {
		t.Fatal(err)
	}
	if c.held("page-000") != h2 {
		t.Fatal("a re-request at the held version replaced the held entry")
	}
	v3, err := workload.MutateCorpus(w.v2, workload.DefaultMutation(301))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.app.InstallCorpus(w.v2, v3); err != nil { // v3's bytes become the newest version
		t.Fatal(err)
	}
	got, err := c.Request("webapp", "page-000")
	if err != nil || !bytes.Equal(got, v3.Pages[0].Bytes()) {
		t.Fatalf("request after the update: %v", err)
	}
	h3 := c.held("page-000")
	if h3 == h2 || c.HeldVersion("page-000") <= 2 || !h3.Holds(got) {
		t.Fatalf("advancing to v%d kept v2's held entry", c.HeldVersion("page-000"))
	}
	c.Forget("page-000")
	if c.held("page-000") != nil {
		t.Fatal("Forget kept the held entry")
	}
}

// TestConcurrentRequestsShareHeldSplit races re-requests of one held
// vary page: every reply decodes right (run it with -race).
func TestConcurrentRequestsShareHeldSplit(t *testing.T) {
	w := buildWorld(t)
	c, _ := varyClient(t, w)
	want := w.v2.Pages[0].Bytes()
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got, err := c.Request("webapp", "page-000")
				if err == nil && !bytes.Equal(got, want) {
					err = fmt.Errorf("re-request %d decoded other bytes", i)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := c.Stats().Requests; got != 31 {
		t.Fatalf("%d requests counted, want 31", got)
	}
}
