package core

import "testing"

// TestFindPathAllocsPinned pins what a path search allocates over the case
// study's one-level tree, as BenchmarkAblationAdaptationCache/cache-off
// counts it in BENCH_proxy.json: the marks live on the stack, so only the
// result's PAD slice is allocated. A change to the count must change that
// row too.
func TestFindPathAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	ms, err := CaseStudyMatrices()
	if err != nil {
		t.Fatal(err)
	}
	m := OverheadModel{Matrices: ms, Rho: 0.8, ServerCPUMHz: 2000, IncludeServerComp: true, SessionRequests: 75}
	pat, err := BuildPAT(caseStudyApp())
	if err != nil {
		t.Fatal(err)
	}
	env := Env{
		Dev:  DevMeta{OSType: OSWinCE, CPUType: CPUTypePXA255, CPUMHz: 400, MemMB: 64},
		Ntwk: NtwkMeta{NetworkType: NetBluetooth, BandwidthKbps: 723},
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := FindPath(pat, m, env); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("FindPath: %v allocs/op, want 1 (BenchmarkAblationAdaptationCache/cache-off's row)", got)
	}
}
