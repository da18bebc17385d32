package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// caseStudyApp builds an AppMeta shaped like the case study's one-level
// PAT: the four communication protocols as top-level leaves, with the
// calibration-era overhead vectors scaled so each environment prefers a
// different PAD.
func caseStudyApp() AppMeta {
	pad := func(id, proto string, server, client time.Duration, size, traffic, upstream int64) PADMeta {
		return PADMeta{
			ID: id, Protocol: proto, Size: size,
			Overhead: PADOverhead{
				ServerCompStd: server, ClientCompStd: client,
				TrafficBytes: traffic, UpstreamBytes: upstream,
			},
		}
	}
	return AppMeta{
		AppID: "webapp",
		PADs: []PADMeta{
			pad("pad-direct", "direct", 0, 0, 9000, 136000, 0),
			pad("pad-gzip", "gzip", 39*time.Millisecond, 39*time.Millisecond, 15000, 53000, 0),
			pad("pad-bitmap", "bitmap", 54*time.Millisecond, 224*time.Millisecond, 27000, 22000, 7000),
			pad("pad-vary", "varyblock", 2500*time.Millisecond, 283*time.Millisecond, 31000, 18000, 0),
		},
	}
}

// multiLevelApp builds a two-level PAT with a symbolic link, the Figure 5
// shape, so the differential sweep also covers deep paths and aliases.
func multiLevelApp() AppMeta {
	return AppMeta{
		AppID: "layered",
		PADs: []PADMeta{
			{ID: "rend-full", Protocol: "full", Children: []string{"c-gzip", "c-vary"},
				Overhead: PADOverhead{ClientCompStd: 5 * time.Millisecond, TrafficBytes: 100000}},
			{ID: "rend-thumb", Protocol: "thumbnail", Children: []string{"link-gzip"},
				Overhead: PADOverhead{ClientCompStd: 2 * time.Millisecond, TrafficBytes: 12000}},
			{ID: "c-gzip", Protocol: "gzip", Parent: "rend-full",
				Overhead: PADOverhead{ClientCompStd: 39 * time.Millisecond, TrafficBytes: 53000}},
			{ID: "c-vary", Protocol: "varyblock", Parent: "rend-full", Size: 31000,
				Overhead: PADOverhead{ServerCompStd: 2500 * time.Millisecond, ClientCompStd: 283 * time.Millisecond, TrafficBytes: 18000}},
			{ID: "link-gzip", Alias: "c-gzip", Parent: "rend-thumb"},
		},
	}
}

// sweepEnvs enumerates the case-study environment grid: both CPU types ×
// both OS types × all three networks × several CPU speeds and bandwidths.
func sweepEnvs() []Env {
	var envs []Env
	for _, cpu := range []string{CPUTypePXA255, CPUTypeP4} {
		for _, os := range []string{OSWinCE, OSFedora} {
			for _, net := range []string{NetLAN, NetWLAN, NetBluetooth} {
				for _, mhz := range []float64{400, 2000, 3060} {
					for _, bw := range []float64{723, 11000, 100000} {
						envs = append(envs, Env{
							Dev:  DevMeta{OSType: os, CPUType: cpu, CPUMHz: mhz, MemMB: 64},
							Ntwk: NtwkMeta{NetworkType: net, BandwidthKbps: bw},
						})
					}
				}
			}
		}
	}
	return envs
}

// TestFindPathCompiledMatchesReference is the byte-identical-search pin:
// for every environment in the case-study sweep, over flat and multi-level
// trees, with and without filters, at several session lengths and server
// strategies, the compiled-index FindPathFiltered must return exactly the
// PathResult (NodeIDs, Total, Breakdown, PADs) of the reference algorithm.
func TestFindPathCompiledMatchesReference(t *testing.T) {
	ms, err := CaseStudyMatrices()
	if err != nil {
		t.Fatal(err)
	}
	msContent, err := ContentAdaptationMatrices()
	if err != nil {
		t.Fatal(err)
	}
	filters := map[string]func(PADMeta) bool{
		"nil":         nil,
		"no-vary":     func(p PADMeta) bool { return p.Protocol != "varyblock" },
		"only-direct": func(p PADMeta) bool { return p.Protocol == "direct" },
		"deny-all":    func(PADMeta) bool { return false },
	}
	apps := map[string]struct {
		app AppMeta
		ms  Matrices
	}{
		"case-study":  {caseStudyApp(), ms},
		"multi-level": {multiLevelApp(), msContent},
	}
	for appName, tc := range apps {
		pat, err := BuildPAT(tc.app)
		if err != nil {
			t.Fatal(err)
		}
		for _, includeServer := range []bool{true, false} {
			for _, session := range []int{1, 75} {
				model := OverheadModel{
					Matrices: tc.ms, Rho: 0.8, ServerCPUMHz: 2000,
					IncludeServerComp: includeServer, SessionRequests: session,
				}
				for ei, env := range sweepEnvs() {
					for fname, filter := range filters {
						got, gotErr := FindPathFiltered(pat, model, env, filter)
						want, wantErr := findPathReference(pat, model, env, filter)
						label := fmt.Sprintf("%s/server=%v/session=%d/env=%d/filter=%s", appName, includeServer, session, ei, fname)
						if (gotErr == nil) != (wantErr == nil) {
							t.Fatalf("%s: err mismatch: compiled %v, reference %v", label, gotErr, wantErr)
						}
						if gotErr != nil {
							if gotErr.Error() != wantErr.Error() {
								t.Fatalf("%s: error text diverged:\ncompiled:  %v\nreference: %v", label, gotErr, wantErr)
							}
							continue
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: result diverged:\ncompiled:  %+v\nreference: %+v", label, got, want)
						}
					}
				}
			}
		}
	}
}

// TestFindPathCompiledMatchesReferenceAfterAddPAD verifies the index is
// recompiled when the tree is extended at run time.
func TestFindPathCompiledMatchesReferenceAfterAddPAD(t *testing.T) {
	ms, err := CaseStudyMatrices()
	if err != nil {
		t.Fatal(err)
	}
	model := OverheadModel{Matrices: ms, Rho: 0.8, ServerCPUMHz: 2000, SessionRequests: 1}
	pat, err := BuildPAT(caseStudyApp())
	if err != nil {
		t.Fatal(err)
	}
	if err := pat.AddPAD(PADMeta{ID: "pad-rsync", Protocol: "rsync",
		Overhead: PADOverhead{ClientCompStd: time.Millisecond, TrafficBytes: 100}}); err != nil {
		t.Fatal(err)
	}
	if err := pat.AddPAD(PADMeta{ID: "pad-link", Alias: "pad-gzip"}); err != nil {
		t.Fatal(err)
	}
	for _, env := range sweepEnvs() {
		got, gotErr := FindPath(pat, model, env)
		want, wantErr := findPathReference(pat, model, env, nil)
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("post-AddPAD divergence for %v: compiled %+v (%v), reference %+v (%v)",
				env, got, gotErr, want, wantErr)
		}
		// The freshly added cheap protocol must actually win somewhere.
		if math.IsInf(want.Total, 1) {
			t.Fatalf("reference returned infinite total without error for %v", env)
		}
	}
}

// TestFindPathCompiledProperty drives randomized trees through both
// implementations.
func TestFindPathCompiledProperty(t *testing.T) {
	ms, err := Neutral([]string{"p0", "p1", "p2"})
	if err != nil {
		t.Fatal(err)
	}
	model := OverheadModel{Matrices: ms, Rho: 0.8, ServerCPUMHz: 2000, SessionRequests: 1}
	f := func(fanout, depth uint8, mhzSeed uint16) bool {
		fo := int(fanout%3) + 1
		dp := int(depth%3) + 1
		app := AppMeta{AppID: "prop"}
		id := 0
		var build func(parent string, level int)
		build = func(parent string, level int) {
			if level > dp {
				return
			}
			for i := 0; i < fo; i++ {
				id++
				name := fmt.Sprintf("n%d", id)
				app.PADs = append(app.PADs, PADMeta{
					ID: name, Protocol: fmt.Sprintf("p%d", id%3), Parent: parent,
					Overhead: PADOverhead{ClientCompStd: time.Duration(id*7919%97) * time.Millisecond},
				})
				build(name, level+1)
			}
		}
		build("", 1)
		children := map[string][]string{}
		for _, p := range app.PADs {
			if p.Parent != "" {
				children[p.Parent] = append(children[p.Parent], p.ID)
			}
		}
		for i := range app.PADs {
			app.PADs[i].Children = children[app.PADs[i].ID]
		}
		pat, err := BuildPAT(app)
		if err != nil {
			return false
		}
		env := Env{
			Dev:  DevMeta{OSType: "os", CPUType: "cpu", CPUMHz: float64(mhzSeed%4000) + 100, MemMB: 64},
			Ntwk: NtwkMeta{NetworkType: "net", BandwidthKbps: 1000},
		}
		got, gotErr := FindPath(pat, model, env)
		want, wantErr := findPathReference(pat, model, env, nil)
		return (gotErr == nil) == (wantErr == nil) && reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCacheKeyStringMatchesFmtReference pins the hand-rolled key builders
// to the original fmt-based rendering.
func TestCacheKeyStringMatchesFmtReference(t *testing.T) {
	f := func(app, who, os, cpu, net string, mhz, bw float64, mem uint16) bool {
		mhzAbs, bwAbs := math.Abs(mhz), math.Abs(bw)
		d := DevMeta{OSType: os, CPUType: cpu, CPUMHz: mhzAbs, MemMB: int(mem)}
		n := NtwkMeta{NetworkType: net, BandwidthKbps: bwAbs}
		k := CacheKey{AppID: app, Principal: who, Dev: d, Ntwk: n}
		wantDev := fmt.Sprintf("os=%s|cpu=%s|mhz=%.0f|mem=%d", os, cpu, mhzAbs, int(mem))
		wantNtwk := fmt.Sprintf("net=%s|bw=%.0f", net, bwAbs)
		wantKey := fmt.Sprintf("app=%s|who=%s|%s|%s", app, who, wantDev, wantNtwk)
		return d.Key() == wantDev && n.Key() == wantNtwk && k.String() == wantKey
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// findPathReference is the original map-and-walk implementation of the
// adaptation path search, kept verbatim as the behavioural pin for the
// compiled index: the differential tests below drive both over the full
// case-study sweep.
func findPathReference(t *PAT, m OverheadModel, env Env, allow func(PADMeta) bool) (PathResult, error) {
	// Step 1: mark each node with its total overhead (resolving symbolic
	// links so an alias inherits its target's cost).
	marks := map[string]Breakdown{}
	for _, id := range t.allIDs() {
		meta, err := t.Resolve(id)
		if err != nil {
			return PathResult{}, err
		}
		if allow != nil && !allow(meta) {
			marks[id] = Breakdown{ClientComp: math.Inf(1)}
			continue
		}
		b, err := m.PADTotal(meta, env)
		if err != nil {
			return PathResult{}, fmt.Errorf("core: marking PAD %s: %w", id, err)
		}
		marks[id] = b
	}

	// Step 2: DFS over root-to-leaf paths keeping the least total.
	best := PathResult{Total: math.Inf(1)}
	for _, path := range t.Paths() {
		total := 0.0
		for _, id := range path {
			total += marks[id].Total()
		}
		if total < best.Total {
			best = PathResult{NodeIDs: append([]string(nil), path...), Total: total}
		}
	}
	if math.IsInf(best.Total, 1) {
		return PathResult{}, fmt.Errorf("%w for app %s in env {%s %s}", ErrNoFeasiblePath, t.AppID(), env.Dev.Key(), env.Ntwk.Key())
	}

	best.Breakdown = map[string]Breakdown{}
	for _, id := range best.NodeIDs {
		meta, err := t.Resolve(id)
		if err != nil {
			return PathResult{}, err
		}
		best.PADs = append(best.PADs, meta)
		best.Breakdown[id] = marks[id]
	}
	return best, nil
}

// TestFindPathRejectsZeroValuePAT: every PAT BuildPAT or AddPAD produces is
// compiled, so the only uncompiled tree is a zero value, and searching one
// is a caller bug reported as an error rather than a nil-map walk.
func TestFindPathRejectsZeroValuePAT(t *testing.T) {
	ms, err := CaseStudyMatrices()
	if err != nil {
		t.Fatal(err)
	}
	model := OverheadModel{Matrices: ms, Rho: 0.8, ServerCPUMHz: 2000, SessionRequests: 75}
	if _, err := FindPath(&PAT{}, model, sweepEnvs()[0]); err == nil {
		t.Fatal("FindPath searched a zero-value PAT")
	}
}
