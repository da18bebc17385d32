package proxy

import "testing"

// TestNegotiateAllocsPinned pins the allocations of a negotiation, as
// BenchmarkNegotiateHot and BenchmarkNegotiateCold count them in
// BENCH_proxy.json: a cache hit allocates only the caller's copy of the
// result, and a miss adds the key, the path search and the cache fill. A
// change to either count must change its snapshot row too.
func TestNegotiateAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	p := newTestProxy(t)
	env := desktopEnv()
	if _, err := p.Negotiate("webapp", env, 75); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := p.Negotiate("webapp", env, 75); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("negotiation cache hit: %v allocs/op, want 1 (BenchmarkNegotiateHot's row)", got)
	}
	// Every run a distinct environment, so every run misses; the cache
	// fills past its 128 entries, so misses evict as they do in steady
	// state.
	mhz := 1000
	if got := testing.AllocsPerRun(300, func() {
		mhz++
		env.Dev.CPUMHz = float64(mhz)
		if _, err := p.Negotiate("webapp", env, 75); err != nil {
			t.Fatal(err)
		}
	}); got != 8 {
		t.Errorf("negotiation cache miss: %v allocs/op, want 8 (BenchmarkNegotiateCold's row)", got)
	}
}
