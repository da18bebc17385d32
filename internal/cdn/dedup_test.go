package cdn

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestEdgeFetchConcurrentMissesSingleOriginFill is the delivery-side
// stampede pin (run under -race in CI): concurrent cache misses for one
// object must produce exactly one origin fill, with every other miss
// either joining the in-flight fill or finding the cache already filled.
func TestEdgeFetchConcurrentMissesSingleOriginFill(t *testing.T) {
	o := NewOrigin()
	payload := bytes.Repeat([]byte("p"), 5000)
	if err := o.Publish("/pad", payload); err != nil {
		t.Fatal(err)
	}
	e, err := NewEdge(edgeConfig("e1", "r1"), o)
	if err != nil {
		t.Fatal(err)
	}
	// Hold the origin's write lock so the fill leader blocks inside
	// origin.Get until every fetcher is in flight.
	o.mu.Lock()
	const fetchers = 32
	var wg, ready sync.WaitGroup
	errs := make(chan error, fetchers)
	for i := 0; i < fetchers; i++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			data, _, miss, err := e.Fetch("/pad")
			if err != nil {
				errs <- err
				return
			}
			if !miss {
				return // late arrival after the fill completed: cache hit
			}
			if !bytes.Equal(data, payload) {
				errs <- fmt.Errorf("fetched %d bytes, want %d", len(data), len(payload))
			}
		}()
	}
	ready.Wait()
	time.Sleep(50 * time.Millisecond) // let fetchers pile up on the fill
	o.mu.Unlock()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.OriginFills != 1 {
		t.Errorf("OriginFills = %d, want exactly 1", st.OriginFills)
	}
	if st.CollapsedFills < 1 {
		t.Errorf("CollapsedFills = %d, want >= 1 (fetchers blocked behind the fill)", st.CollapsedFills)
	}
	if st.Hits+st.Misses != fetchers {
		t.Errorf("Hits(%d) + Misses(%d) != %d fetchers", st.Hits, st.Misses, fetchers)
	}
	// The object is now resident: further fetches are plain hits.
	if _, fill, miss, err := e.Fetch("/pad"); err != nil || miss || fill != 0 {
		t.Errorf("post-stampede fetch: miss=%v fill=%v err=%v, want warm hit", miss, fill, err)
	}
}

// TestEdgeFetchMissErrorNotCached verifies a failed fill does not poison
// the dedup path: after the object appears at the origin, fetches succeed.
func TestEdgeFetchMissErrorNotCached(t *testing.T) {
	o := NewOrigin()
	e, err := NewEdge(edgeConfig("e1", "r1"), o)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := e.Fetch("/late"); err == nil {
		t.Fatal("fetch of unpublished object succeeded")
	}
	if err := o.Publish("/late", []byte("now present")); err != nil {
		t.Fatal(err)
	}
	data, _, miss, err := e.Fetch("/late")
	if err != nil || !miss || string(data) != "now present" {
		t.Fatalf("fetch after publish: data=%q miss=%v err=%v", data, miss, err)
	}
}
