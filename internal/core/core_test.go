package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// --- metadata ---

func validEnv() Env {
	return Env{
		Dev:  DevMeta{OSType: OSFedora, CPUType: CPUTypeP4, CPUMHz: 2000, MemMB: 512},
		Ntwk: NtwkMeta{NetworkType: NetLAN, BandwidthKbps: 100000},
	}
}

func TestMetadataValidation(t *testing.T) {
	if err := validEnv().Validate(); err != nil {
		t.Fatalf("valid env rejected: %v", err)
	}
	bad := []Env{
		{Dev: DevMeta{CPUType: "x", CPUMHz: 1, MemMB: 1}, Ntwk: NtwkMeta{NetworkType: "n", BandwidthKbps: 1}},
		{Dev: DevMeta{OSType: "o", CPUType: "x", CPUMHz: 0, MemMB: 1}, Ntwk: NtwkMeta{NetworkType: "n", BandwidthKbps: 1}},
		{Dev: DevMeta{OSType: "o", CPUType: "x", CPUMHz: 1, MemMB: 0}, Ntwk: NtwkMeta{NetworkType: "n", BandwidthKbps: 1}},
		{Dev: DevMeta{OSType: "o", CPUType: "x", CPUMHz: 1, MemMB: 1}, Ntwk: NtwkMeta{NetworkType: "", BandwidthKbps: 1}},
		{Dev: DevMeta{OSType: "o", CPUType: "x", CPUMHz: 1, MemMB: 1}, Ntwk: NtwkMeta{NetworkType: "n", BandwidthKbps: 0}},
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("case %d: invalid env validated", i)
		}
	}
}

func TestPADMetaValidation(t *testing.T) {
	good := PADMeta{ID: "p", Protocol: "direct"}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid PADMeta rejected: %v", err)
	}
	bad := []PADMeta{
		{Protocol: "direct"},               // no id
		{ID: "p"},                          // no protocol, no alias
		{ID: "p", Alias: "p"},              // self alias
		{ID: "p", Protocol: "d", Size: -1}, // negative size
		{ID: "p", Protocol: "d", Children: []string{"p"}}, // self child
		{ID: "p", Protocol: "d", Overhead: PADOverhead{TrafficBytes: -1}},
		{ID: "p", Protocol: "d", Overhead: PADOverhead{ServerCompStd: -time.Second}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid PADMeta validated: %+v", i, p)
		}
	}
}

func TestPADMetaRedacted(t *testing.T) {
	p := PADMeta{ID: "p", Protocol: "d", Parent: "q", Children: []string{"a", "b"}}
	r := p.Redacted()
	if r.Parent != "" || r.Children != nil {
		t.Fatal("Redacted did not hide tree links")
	}
	if p.Parent != "q" || len(p.Children) != 2 {
		t.Fatal("Redacted modified the original")
	}
}

// --- ratio matrices ---

func TestRatioMatrixBasics(t *testing.T) {
	m, err := NewRatioMatrix("A", []string{"gzip"}, []string{"P", "D"}, [][]float64{{1.1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Ratio("gzip", "P"); got != 1.1 {
		t.Fatalf("Ratio = %v, want 1.1", got)
	}
	// Unknown protocol or env type falls back to the neutral ratio.
	if got := m.Ratio("direct", "P"); got != 1 {
		t.Fatalf("unknown protocol ratio = %v, want 1", got)
	}
	if got := m.Ratio("gzip", "SPARC"); got != 1 {
		t.Fatalf("unknown column ratio = %v, want 1", got)
	}
}

func TestRatioMatrixValidation(t *testing.T) {
	cases := []struct {
		name       string
		rows, cols []string
		vals       [][]float64
	}{
		{"", []string{"a"}, []string{"b"}, [][]float64{{1}}},
		{"m", nil, []string{"b"}, nil},
		{"m", []string{"a"}, nil, [][]float64{{}}},
		{"m", []string{"a"}, []string{"b"}, [][]float64{}},
		{"m", []string{"a"}, []string{"b"}, [][]float64{{1, 2}}},
		{"m", []string{"a"}, []string{"b"}, [][]float64{{0}}},
		{"m", []string{"a"}, []string{"b"}, [][]float64{{-1}}},
		{"m", []string{"a", "a"}, []string{"b"}, [][]float64{{1}, {1}}},
		{"m", []string{"a"}, []string{"b", "b"}, [][]float64{{1, 1}}},
	}
	for i, c := range cases {
		if _, err := NewRatioMatrix(c.name, c.rows, c.cols, c.vals); err == nil {
			t.Errorf("case %d: invalid matrix accepted", i)
		}
	}
}

// The paper's WinMedia/Kinoma example: the linearly-cheaper player is
// disqualified by an infinite OS ratio.
func TestMediaPlayerExample(t *testing.T) {
	m, err := MediaPlayerExampleMatrix()
	if err != nil {
		t.Fatal(err)
	}
	// Linear estimates: WinMedia 5s, Kinoma 2s. On WinCE the matrix flips
	// the decision.
	winmedia := 5.0 * m.Ratio("winmedia", "WinCE")
	kinoma := 2.0 * m.Ratio("kinoma", "WinCE")
	if !math.IsInf(kinoma, 1) {
		t.Fatalf("Kinoma on WinCE = %v, want +Inf", kinoma)
	}
	if winmedia >= kinoma {
		t.Fatal("WinMedia should win on WinCE")
	}
	// And on PalmOS the reverse.
	if !math.IsInf(5.0*m.Ratio("winmedia", "PalmOS"), 1) {
		t.Fatal("WinMedia on PalmOS should be infinite")
	}
}

func TestNeutralMatrices(t *testing.T) {
	ms, err := Neutral([]string{"p1", "p2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Validate(); err != nil {
		t.Fatal(err)
	}
	if ms.A.Ratio("p1", "whatever") != 1 || ms.R.Ratio("p2", "x") != 1 {
		t.Fatal("neutral matrices are not all ones")
	}
}

// --- PAT ---

// figure5App reproduces the shape of the paper's Figure 5: PAD1..PAD8 with
// PAD6 a symbolic link to PAD7 (needed by both PAD1 and PAD2).
func figure5App() AppMeta {
	pad := func(id, parent string, children []string, clientStd time.Duration) PADMeta {
		return PADMeta{
			ID: id, Protocol: "proto-" + id, Parent: parent, Children: children,
			Overhead: PADOverhead{ClientCompStd: clientStd},
		}
	}
	link := func(id, parent, target string) PADMeta {
		return PADMeta{ID: id, Parent: parent, Alias: target}
	}
	return AppMeta{
		AppID: "fig5",
		PADs: []PADMeta{
			pad("PAD1", "", []string{"PAD4", "PAD5", "PAD6"}, 8*time.Second),
			pad("PAD2", "", []string{"PAD7"}, 4*time.Second),
			pad("PAD3", "", []string{"PAD8a"}, 20*time.Second),
			pad("PAD4", "PAD1", nil, 6*time.Second),
			pad("PAD5", "PAD1", nil, 9*time.Second),
			link("PAD6", "PAD1", "PAD7"),
			pad("PAD7", "PAD2", nil, 5*time.Second),
			pad("PAD8a", "PAD3", nil, 7*time.Second),
		},
	}
}

func TestBuildPATFigure5(t *testing.T) {
	tr, err := BuildPAT(figure5App())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 8 {
		t.Fatalf("tree has %d nodes, want 8", tr.Len())
	}
	paths := tr.Paths()
	// Leaves: PAD4, PAD5, PAD6(link), PAD7, PAD8a => 5 paths.
	if len(paths) != 5 {
		t.Fatalf("got %d paths, want 5 (= number of leaves): %v", len(paths), paths)
	}
	if leaves := countLeaves(tr); leaves != len(paths) {
		t.Fatalf("paths (%d) != leaves (%d)", len(paths), leaves)
	}
	// The symbolic link resolves to its target's metadata.
	meta, err := tr.Resolve("PAD6")
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID != "PAD7" {
		t.Fatalf("PAD6 resolves to %s, want PAD7", meta.ID)
	}
	direct, err := tr.Resolve("PAD4")
	if err != nil || direct.ID != "PAD4" {
		t.Fatalf("PAD4 resolves to %v, %v", direct.ID, err)
	}
	if _, err := tr.Resolve("PAD99"); err == nil {
		t.Fatal("resolving unknown PAD succeeded")
	}
}

func TestBuildPATRejectsBadTopologies(t *testing.T) {
	base := figure5App()
	mutate := func(f func(*AppMeta)) AppMeta {
		app := AppMeta{AppID: base.AppID, PADs: append([]PADMeta(nil), base.PADs...)}
		f(&app)
		return app
	}
	cases := []struct {
		name string
		app  AppMeta
	}{
		{"empty", AppMeta{AppID: "x"}},
		{"no app id", AppMeta{PADs: base.PADs}},
		{"duplicate id", mutate(func(a *AppMeta) { a.PADs = append(a.PADs, a.PADs[0]) })},
		{"unknown child", mutate(func(a *AppMeta) { a.PADs[0].Children = append(a.PADs[0].Children, "ghost") })},
		{"unknown parent", mutate(func(a *AppMeta) { a.PADs[3].Parent = "ghost" })},
		{"parent not listing child", mutate(func(a *AppMeta) { a.PADs[3].Parent = "PAD2" })},
		{"alias to unknown", mutate(func(a *AppMeta) { a.PADs[5].Alias = "ghost" })},
		{"alias with children", mutate(func(a *AppMeta) {
			a.PADs[5].Alias = "PAD7"
			a.PADs[5].Children = []string{"PAD4"}
		})},
	}
	for _, c := range cases {
		if _, err := BuildPAT(c.app); err == nil {
			t.Errorf("%s: invalid topology accepted", c.name)
		}
	}
}

func TestBuildPATRejectsCycle(t *testing.T) {
	app := AppMeta{
		AppID: "cyclic",
		PADs: []PADMeta{
			{ID: "a", Protocol: "pa", Parent: "b", Children: []string{"b"}},
			{ID: "b", Protocol: "pb", Parent: "a", Children: []string{"a"}},
		},
	}
	if _, err := BuildPAT(app); err == nil {
		t.Fatal("cyclic topology accepted")
	}
}

// countLeaves counts the tree's childless nodes, symbolic links included.
func countLeaves(tr *PAT) int {
	n := 0
	for _, node := range tr.nodes {
		if len(node.children) == 0 {
			n++
		}
	}
	return n
}

// --- overhead model ---

func testModel(t *testing.T) OverheadModel {
	t.Helper()
	ms, err := Neutral([]string{"p"})
	if err != nil {
		t.Fatal(err)
	}
	return OverheadModel{
		Matrices:          ms,
		Rho:               0.8,
		ServerCPUMHz:      2000,
		IncludeServerComp: true,
		SessionRequests:   1,
	}
}

func TestPADTotalEquation3(t *testing.T) {
	m := testModel(t)
	env := Env{
		Dev:  DevMeta{OSType: "os", CPUType: "cpu", CPUMHz: 1000, MemMB: 64},
		Ntwk: NtwkMeta{NetworkType: "net", BandwidthKbps: 1000}, // 0.8 Mbps effective
	}
	p := PADMeta{
		ID: "p", Protocol: "p", Size: 10000, // 10 KB download
		Overhead: PADOverhead{
			ServerCompStd: 2 * time.Second, // /4 on the 2 GHz server = 0.5s
			ClientCompStd: 1 * time.Second, // /2 on the 1 GHz client = 0.5s
			TrafficBytes:  100000,          // 100 KB at 0.8 Mbps = 1s
			UpstreamBytes: 0,
		},
	}
	b, err := m.PADTotal(p, env)
	if err != nil {
		t.Fatal(err)
	}
	wantDownload := 10000 * 8.0 / (0.8 * 1000 * 1000) // 0.1s
	if !close1e9(b.Download, wantDownload) {
		t.Errorf("download = %v, want %v", b.Download, wantDownload)
	}
	if !close1e9(b.ServerComp, 0.5) {
		t.Errorf("server comp = %v, want 0.5", b.ServerComp)
	}
	if !close1e9(b.ClientComp, 0.5) {
		t.Errorf("client comp = %v, want 0.5", b.ClientComp)
	}
	if !close1e9(b.Traffic, 1.0) {
		t.Errorf("traffic = %v, want 1.0", b.Traffic)
	}
	if !close1e9(b.Total(), 2.1) {
		t.Errorf("total = %v, want 2.1", b.Total())
	}
	if math.IsInf(b.Total(), 1) {
		t.Error("finite breakdown reported infeasible")
	}
}

func close1e9(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPADTotalSessionAmortization(t *testing.T) {
	m := testModel(t)
	m.SessionRequests = 10
	env := validEnv()
	p := PADMeta{ID: "p", Protocol: "p", Size: 80000}
	b, err := m.PADTotal(p, env)
	if err != nil {
		t.Fatal(err)
	}
	m.SessionRequests = 1
	b1, err := m.PADTotal(p, env)
	if err != nil {
		t.Fatal(err)
	}
	if !close1e9(b.Download*10, b1.Download) {
		t.Fatalf("amortized download %v * 10 != %v", b.Download, b1.Download)
	}
}

func TestPADTotalServerCompToggle(t *testing.T) {
	m := testModel(t)
	env := validEnv()
	p := PADMeta{ID: "p", Protocol: "p", Overhead: PADOverhead{ServerCompStd: time.Second}}
	b, err := m.PADTotal(p, env)
	if err != nil {
		t.Fatal(err)
	}
	if b.ServerComp <= 0 {
		t.Fatal("server comp missing in reactive mode")
	}
	m.IncludeServerComp = false
	b, err = m.PADTotal(p, env)
	if err != nil {
		t.Fatal(err)
	}
	if b.ServerComp != 0 {
		t.Fatalf("server comp = %v in proactive mode, want 0", b.ServerComp)
	}
}

func TestPADTotalInfiniteRatioDisqualifies(t *testing.T) {
	bm, err := MediaPlayerExampleMatrix()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Neutral([]string{"kinoma", "winmedia"})
	if err != nil {
		t.Fatal(err)
	}
	ms.B = bm
	m := OverheadModel{Matrices: ms, Rho: 0.8, ServerCPUMHz: 2000, SessionRequests: 1}
	env := Env{
		Dev:  DevMeta{OSType: "WinCE", CPUType: "cpu", CPUMHz: 400, MemMB: 64},
		Ntwk: NtwkMeta{NetworkType: "net", BandwidthKbps: 1000},
	}
	p := PADMeta{ID: "k", Protocol: "kinoma", Overhead: PADOverhead{ClientCompStd: time.Second}}
	b, err := m.PADTotal(p, env)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(b.Total(), 1) {
		t.Fatal("Kinoma on WinCE should be infeasible")
	}
}

func TestPADTotalValidation(t *testing.T) {
	m := testModel(t)
	env := validEnv()
	if _, err := m.PADTotal(PADMeta{ID: "l", Alias: "x"}, env); err == nil {
		t.Error("unresolved symbolic link evaluated")
	}
	bad := m
	bad.Rho = 0
	if _, err := bad.PADTotal(PADMeta{ID: "p", Protocol: "p"}, env); err == nil {
		t.Error("rho=0 model evaluated")
	}
	bad = m
	bad.ServerCPUMHz = 0
	if _, err := bad.PADTotal(PADMeta{ID: "p", Protocol: "p"}, env); err == nil {
		t.Error("zero server CPU evaluated")
	}
	bad = m
	bad.SessionRequests = 0
	if _, err := bad.PADTotal(PADMeta{ID: "p", Protocol: "p"}, env); err == nil {
		t.Error("zero session requests evaluated")
	}
}

// --- path search ---

func TestFindPathFigure5Example(t *testing.T) {
	// Mirror the paper's walkthrough: the first examined path (PAD1,
	// PAD4) totals 14; (PAD2, PAD7) totals 9 and wins.
	tr, err := BuildPAT(figure5App())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Neutral([]string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	// Make compute the only term: client at the reference speed, huge
	// bandwidth, no sizes/traffic.
	m := OverheadModel{Matrices: ms, Rho: 0.8, ServerCPUMHz: 2000, SessionRequests: 1}
	env := Env{
		Dev:  DevMeta{OSType: "os", CPUType: "cpu", CPUMHz: StdCPUMHz, MemMB: 64},
		Ntwk: NtwkMeta{NetworkType: "net", BandwidthKbps: 1e9},
	}
	res, err := FindPath(tr, m, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NodeIDs) != 2 || res.NodeIDs[0] != "PAD2" || res.NodeIDs[1] != "PAD7" {
		t.Fatalf("selected path %v, want [PAD2 PAD7]", res.NodeIDs)
	}
	if !close1e9(res.Total, 9) {
		t.Fatalf("total = %v, want 9", res.Total)
	}
	if len(res.PADs) != 2 || res.PADs[1].ID != "PAD7" {
		t.Fatalf("resolved PADs = %v", res.PADs)
	}
	if len(res.Breakdown) != 2 {
		t.Fatalf("breakdown has %d entries, want 2", len(res.Breakdown))
	}
}

func TestFindPathUsesSymbolicLinkCost(t *testing.T) {
	// Force PAD2's branch to be expensive; the best path is then
	// PAD1 -> PAD6, because the symbolic link inherits PAD7's cost
	// (8 + 5 = 13), beating PAD1 -> PAD4 (8 + 6 = 14).
	app := figure5App()
	for i := range app.PADs {
		if app.PADs[i].ID == "PAD2" {
			app.PADs[i].Overhead.ClientCompStd = 100 * time.Second
		}
	}
	tr, err := BuildPAT(app)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Neutral([]string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	m := OverheadModel{Matrices: ms, Rho: 0.8, ServerCPUMHz: 2000, SessionRequests: 1}
	env := Env{
		Dev:  DevMeta{OSType: "os", CPUType: "cpu", CPUMHz: StdCPUMHz, MemMB: 64},
		Ntwk: NtwkMeta{NetworkType: "net", BandwidthKbps: 1e9},
	}
	res, err := FindPath(tr, m, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeIDs[0] != "PAD1" || res.NodeIDs[1] != "PAD6" {
		t.Fatalf("selected %v, want [PAD1 PAD6]", res.NodeIDs)
	}
	if !close1e9(res.Total, 13) {
		t.Fatalf("total = %v, want 13", res.Total)
	}
	// The client must be told to fetch PAD7, the link's target.
	if res.PADs[1].ID != "PAD7" {
		t.Fatalf("resolved PAD = %s, want PAD7", res.PADs[1].ID)
	}
}

func TestFindPathNoFeasible(t *testing.T) {
	bm, err := NewRatioMatrix("B", []string{"only"}, []string{"BadOS"}, [][]float64{{math.Inf(1)}})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Neutral([]string{"only"})
	if err != nil {
		t.Fatal(err)
	}
	ms.B = bm
	app := AppMeta{AppID: "one", PADs: []PADMeta{{ID: "p", Protocol: "only"}}}
	tr, err := BuildPAT(app)
	if err != nil {
		t.Fatal(err)
	}
	m := OverheadModel{Matrices: ms, Rho: 0.8, ServerCPUMHz: 2000, SessionRequests: 1}
	env := Env{
		Dev:  DevMeta{OSType: "BadOS", CPUType: "cpu", CPUMHz: 500, MemMB: 64},
		Ntwk: NtwkMeta{NetworkType: "net", BandwidthKbps: 1000},
	}
	_, err = FindPath(tr, m, env)
	if err == nil || !strings.Contains(err.Error(), "no feasible adaptation path") {
		t.Fatalf("err = %v, want no-feasible-path", err)
	}
}

// Property: FindPath's total equals the minimum over explicit path sums.
func TestFindPathIsOptimalProperty(t *testing.T) {
	ms, err := Neutral([]string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	m := OverheadModel{Matrices: ms, Rho: 0.8, ServerCPUMHz: 2000, SessionRequests: 1}
	env := Env{
		Dev:  DevMeta{OSType: "os", CPUType: "cpu", CPUMHz: StdCPUMHz, MemMB: 64},
		Ntwk: NtwkMeta{NetworkType: "net", BandwidthKbps: 1e9},
	}
	f := func(costs [8]uint16) bool {
		app := figure5App()
		for i := range app.PADs {
			if app.PADs[i].Alias != "" {
				continue
			}
			app.PADs[i].Overhead.ClientCompStd = time.Duration(costs[i%len(costs)]) * time.Millisecond
		}
		tr, err := BuildPAT(app)
		if err != nil {
			return false
		}
		res, err := FindPath(tr, m, env)
		if err != nil {
			return false
		}
		minTotal := math.Inf(1)
		for _, path := range tr.Paths() {
			sum := 0.0
			for _, id := range path {
				meta, err := tr.Resolve(id)
				if err != nil {
					return false
				}
				b, err := m.PADTotal(meta, env)
				if err != nil {
					return false
				}
				sum += b.Total()
			}
			if sum < minTotal {
				minTotal = sum
			}
		}
		return close1e9(res.Total, minTotal)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the number of paths equals the number of leaves for random
// chains attached to the Figure 5 tree.
func TestPathsEqualLeavesProperty(t *testing.T) {
	f := func(extra uint8) bool {
		app := figure5App()
		parent := 3 // PAD4
		for i := 0; i < int(extra%10); i++ {
			id := "X" + string(rune('a'+i))
			app.PADs[parent].Children = []string{id}
			app.PADs = append(app.PADs, PADMeta{ID: id, Protocol: "px", Parent: app.PADs[parent].ID})
			parent = len(app.PADs) - 1
		}
		tr, err := BuildPAT(app)
		if err != nil {
			return false
		}
		return len(tr.Paths()) == countLeaves(tr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCaseStudyMatrices(t *testing.T) {
	ms, err := CaseStudyMatrices()
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Validate(); err != nil {
		t.Fatal(err)
	}
	// The PXA255 penalty from Equation 4.
	if got := ms.A.Ratio("gzip", CPUTypePXA255); got != 1.1 {
		t.Fatalf("A[gzip][P] = %v, want 1.1", got)
	}
	if got := ms.A.Ratio("gzip", CPUTypeP4); got != 1 {
		t.Fatalf("A[gzip][D] = %v, want 1", got)
	}
	// Direct is not a row: neutral fallback.
	if got := ms.A.Ratio("direct", CPUTypePXA255); got != 1 {
		t.Fatalf("A[direct][P] = %v, want 1 (fallback)", got)
	}
	if got := ms.R.Ratio("bitmap", NetBluetooth); got != 1 {
		t.Fatalf("R[bitmap][BT] = %v, want 1", got)
	}
}

// Property: the total overhead is non-increasing in client bandwidth and
// the client-compute term non-increasing in CPU speed — the monotonicity
// the linear model promises.
func TestPADTotalMonotonicityProperty(t *testing.T) {
	m := testModel(t)
	p := PADMeta{
		ID: "p", Protocol: "p", Size: 20000,
		Overhead: PADOverhead{
			ServerCompStd: 40 * time.Millisecond,
			ClientCompStd: 80 * time.Millisecond,
			TrafficBytes:  50000,
			UpstreamBytes: 5000,
		},
	}
	f := func(bwA, bwB uint32, cpuA, cpuB uint16) bool {
		mkEnv := func(bw float64, cpu float64) Env {
			return Env{
				Dev:  DevMeta{OSType: "os", CPUType: "cpu", CPUMHz: cpu, MemMB: 64},
				Ntwk: NtwkMeta{NetworkType: "net", BandwidthKbps: bw},
			}
		}
		bw1 := float64(bwA%1000000) + 1
		bw2 := float64(bwB%1000000) + 1
		if bw1 > bw2 {
			bw1, bw2 = bw2, bw1
		}
		cpu := float64(cpuA%4000) + 100
		slow, err1 := m.PADTotal(p, mkEnv(bw1, cpu))
		fast, err2 := m.PADTotal(p, mkEnv(bw2, cpu))
		if err1 != nil || err2 != nil {
			return false
		}
		if fast.Total() > slow.Total()+1e-12 {
			return false
		}
		c1 := float64(cpuA%4000) + 100
		c2 := float64(cpuB%4000) + 100
		if c1 > c2 {
			c1, c2 = c2, c1
		}
		slowCPU, err1 := m.PADTotal(p, mkEnv(1000, c1))
		fastCPU, err2 := m.PADTotal(p, mkEnv(1000, c2))
		if err1 != nil || err2 != nil {
			return false
		}
		return fastCPU.ClientComp <= slowCPU.ClientComp+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding a PAD to a PAT never improves the best path beyond the
// new PAD's own paths — i.e. FindPath is stable under irrelevant
// extensions with worse costs.
func TestFindPathStableUnderWorseExtensions(t *testing.T) {
	ms, err := Neutral([]string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	m := OverheadModel{Matrices: ms, Rho: 0.8, ServerCPUMHz: 2000, SessionRequests: 1}
	env := Env{
		Dev:  DevMeta{OSType: "os", CPUType: "cpu", CPUMHz: StdCPUMHz, MemMB: 64},
		Ntwk: NtwkMeta{NetworkType: "net", BandwidthKbps: 1e9},
	}
	app := figure5App()
	tr, err := BuildPAT(app)
	if err != nil {
		t.Fatal(err)
	}
	before, err := FindPath(tr, m, env)
	if err != nil {
		t.Fatal(err)
	}
	// Add an expensive top-level PAD: the winner must not change.
	app.PADs = append(app.PADs, PADMeta{
		ID: "expensive", Protocol: "px",
		Overhead: PADOverhead{ClientCompStd: time.Hour},
	})
	if tr, err = BuildPAT(app); err != nil {
		t.Fatal(err)
	}
	after, err := FindPath(tr, m, env)
	if err != nil {
		t.Fatal(err)
	}
	if before.Total != after.Total || before.NodeIDs[0] != after.NodeIDs[0] {
		t.Fatalf("worse extension changed the result: %v -> %v", before.NodeIDs, after.NodeIDs)
	}
}
