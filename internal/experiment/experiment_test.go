package experiment

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"fractal/internal/codec"
	"fractal/internal/netsim"
	"fractal/internal/workload"
)

// sharedSetup builds the default platform once; experiments treat it
// read-only (except the CDN warm-up, which is idempotent).
var (
	setupOnce sync.Once
	setupVal  *Setup
	setupErr  error
)

func testSetup(t testing.TB) *Setup {
	t.Helper()
	setupOnce.Do(func() {
		setupVal, setupErr = NewSetup(DefaultSetupConfig())
	})
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	return setupVal
}

func TestSetupConfigValidation(t *testing.T) {
	bad := DefaultSetupConfig()
	bad.Pages = 0
	if _, err := NewSetup(bad); err == nil {
		t.Fatal("zero pages accepted")
	}
	bad = DefaultSetupConfig()
	bad.Edges = 0
	if _, err := NewSetup(bad); err == nil {
		t.Fatal("zero edges accepted")
	}
}

func TestSetupBuildsCompletePlatform(t *testing.T) {
	s := testSetup(t)
	if s.App.Resources() != 75 {
		t.Fatalf("resources = %d, want 75", s.App.Resources())
	}
	if len(s.AppMeta.PADs) != 4 {
		t.Fatalf("PADs = %d, want 4", len(s.AppMeta.PADs))
	}
	// Count only PAD modules: RunFig9b may already have published its
	// synthetic average-size object on the shared setup.
	mods := 0
	for _, path := range s.CDN.Origin().Paths() {
		if strings.HasPrefix(path, "/pads/pad-") {
			mods++
		}
	}
	if mods != 4 {
		t.Fatalf("published PAD modules = %d, want 4", mods)
	}
	if len(s.CDN.Edges()) != 10 {
		t.Fatalf("edges = %d, want 10", len(s.CDN.Edges()))
	}
}

func TestEnvForStations(t *testing.T) {
	env := EnvFor(netsim.PDA)
	if env.Dev.OSType != "WinCE4.2" || env.Ntwk.NetworkType != "Bluetooth" {
		t.Fatalf("env = %+v", env)
	}
	if err := env.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Figure 11(a): Direct > Gzip > Bitmap > Vary in bytes transferred.
func TestFig11aByteOrdering(t *testing.T) {
	s := testSetup(t)
	r, err := RunFig11a(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	by := map[string]int64{}
	for _, row := range r.Rows {
		by[row.Protocol] = row.Bytes
	}
	t.Logf("fig11a bytes: %v", by)
	if !(by[codec.NameDirect] > by[codec.NameGzip] &&
		by[codec.NameGzip] > by[codec.NameBitmap] &&
		by[codec.NameBitmap] > by[codec.NameVaryBlock]) {
		t.Fatalf("byte ordering violates Figure 11(a): %v", by)
	}
}

// Figure 11(b): with server-side computing the winners are Direct
// (Desktop-LAN), Gzip (Laptop-WLAN), Bitmap (PDA-Bluetooth), and
// Vary-sized blocking is disqualified everywhere by server compute.
func TestFig11bWinners(t *testing.T) {
	s := testSetup(t)
	g, err := RunFig11Grid(s, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range g.Rows() {
		t.Log(row)
	}
	want := map[string]string{
		"Desktop": codec.NameDirect,
		"Laptop":  codec.NameGzip,
		"PDA":     codec.NameBitmap,
	}
	for station, proto := range want {
		if g.Winner[station] != proto {
			t.Errorf("%s winner = %s, want %s", station, g.Winner[station], proto)
		}
		if g.Totals[station][codec.NameVaryBlock] <= g.Totals[station][proto] {
			t.Errorf("%s: vary (%v) not disqualified vs %s (%v)",
				station, g.Totals[station][codec.NameVaryBlock], proto, g.Totals[station][proto])
		}
	}
}

// Figure 11(c)/10(d): without server-side computing Desktop and Laptop
// keep their protocols but the PDA flips Bitmap -> Vary-sized blocking.
func TestFig11cFlip(t *testing.T) {
	s := testSetup(t)
	g, err := RunFig11Grid(s, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range g.Rows() {
		t.Log(row)
	}
	want := map[string]string{
		"Desktop": codec.NameDirect,
		"Laptop":  codec.NameGzip,
		"PDA":     codec.NameVaryBlock,
	}
	for station, proto := range want {
		if g.Winner[station] != proto {
			t.Errorf("%s winner without server comp = %s, want %s", station, g.Winner[station], proto)
		}
	}
}

// Figure 10: scenario grid consistency — the adaptive scenario's protocol
// equals the per-station winner, and Vary's server compute dominates.
func TestFig10Scenarios(t *testing.T) {
	s := testSetup(t)
	sc, err := RunScenarios(s, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Rows) != 9 {
		t.Fatalf("rows = %d, want 3 stations x 3 scenarios", len(sc.Rows))
	}
	grid, err := RunFig11Grid(s, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, station := range []string{"Desktop", "Laptop", "PDA"} {
		ad, err := sc.Row(station, ScenarioAdaptive)
		if err != nil {
			t.Fatal(err)
		}
		if ad.Protocol != grid.Winner[station] {
			t.Errorf("%s adaptive scenario picked %s, grid winner is %s", station, ad.Protocol, grid.Winner[station])
		}
		static, err := sc.Row(station, ScenarioStatic)
		if err != nil {
			t.Fatal(err)
		}
		if static.Protocol != codec.NameVaryBlock {
			t.Errorf("static scenario protocol = %s", static.Protocol)
		}
		// "Vary-sized blocking has huge server side computing time".
		if static.ServerComp < 10*ad.ServerComp && ad.Protocol != codec.NameVaryBlock {
			t.Errorf("%s: vary server comp %v not dominant over adaptive %v", station, static.ServerComp, ad.ServerComp)
		}
		none, err := sc.Row(station, ScenarioNone)
		if err != nil {
			t.Fatal(err)
		}
		if none.ServerComp != 0 || none.ClientComp != 0 {
			t.Errorf("%s: direct sending has computing overhead %v/%v", station, none.ServerComp, none.ClientComp)
		}
	}
	// Proactive strategy rows differ only in server comp.
	scd, err := RunScenarios(s, false)
	if err != nil {
		t.Fatal(err)
	}
	pdaAdaptive, err := scd.Row("PDA", ScenarioAdaptive)
	if err != nil {
		t.Fatal(err)
	}
	if pdaAdaptive.Protocol != codec.NameVaryBlock {
		t.Errorf("Figure 10(d): PDA adaptive = %s, want varyblock", pdaAdaptive.Protocol)
	}
	if pdaAdaptive.ServerComp != 0 {
		t.Errorf("proactive scenario has server comp %v", pdaAdaptive.ServerComp)
	}
}

// The headline numbers: adaptive beats none and static, with savings of
// the same order as the paper's 41%/14%.
func TestHeadlineSavings(t *testing.T) {
	s := testSetup(t)
	r, err := RunHeadline(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Render() {
		t.Log(row)
	}
	for _, row := range r.Rows {
		if row.AdaptiveTotal > row.NoneTotal+1e-9 {
			t.Errorf("%s: adaptive (%v) worse than none (%v)", row.Station, row.AdaptiveTotal, row.NoneTotal)
		}
		if row.AdaptiveTotal > row.StaticTotal+1e-9 {
			t.Errorf("%s: adaptive (%v) worse than static (%v)", row.Station, row.AdaptiveTotal, row.StaticTotal)
		}
	}
	if r.BestVsNone < 0.20 {
		t.Errorf("best savings vs none = %.0f%%, want >= 20%% (paper: 41%%)", r.BestVsNone*100)
	}
	if r.BestVsStatic < 0.05 {
		t.Errorf("best savings vs static = %.0f%%, want >= 5%% (paper: 14%%)", r.BestVsStatic*100)
	}
}

// Figure 9(b): centralized retrieval degrades with client count; CDN
// stays flat and wins at scale.
func TestFig9bShape(t *testing.T) {
	s := testSetup(t)
	r, err := RunFig9b(s, []int{1, 50, 100, 200, 300})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows() {
		t.Log(row)
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if ratio := last.Centralized.Seconds() / first.Centralized.Seconds(); ratio < 5 {
		t.Errorf("centralized slowdown at 300 clients only %.1fx", ratio)
	}
	if ratio := last.Distributed.Seconds() / first.Distributed.Seconds(); ratio > 3 {
		t.Errorf("distributed slowdown %.1fx, should stay nearly flat", ratio)
	}
	if last.Centralized <= last.Distributed {
		t.Error("centralized not slower than distributed at 300 clients")
	}
	// Monotone degradation for the centralized curve.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Centralized < r.Points[i-1].Centralized {
			t.Errorf("centralized curve not monotone at %d clients", r.Points[i].Clients)
		}
	}
}

// Figure 9(a): real concurrent negotiations stay in a stable range
// (no super-linear blowup) thanks to search efficiency + the adaptation
// cache.
func TestFig9aStability(t *testing.T) {
	if testing.Short() {
		t.Skip("network experiment")
	}
	s := testSetup(t)
	r, err := RunFig9a(s, []int{1, 8, 32, 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows() {
		t.Log(row)
	}
	if len(r.Points) != 4 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// All negotiations completed (RunFig9a errors otherwise). Guard only
	// against a pathological blowup: mean at 64 clients should stay within
	// 200x of mean at 1 client even on a loaded CI machine.
	if r.Points[3].Mean > 200*r.Points[0].Mean {
		t.Errorf("negotiation mean exploded: %v -> %v", r.Points[0].Mean, r.Points[3].Mean)
	}
}

func TestTable1(t *testing.T) {
	s := testSetup(t)
	rows, err := RunTable1(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("table 1 rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Function == "" || r.Implementation == "" || r.ModuleBytes == 0 {
			t.Errorf("incomplete Table 1 row: %+v", r)
		}
	}
}

func TestRunFig9InputValidation(t *testing.T) {
	s := testSetup(t)
	if _, err := RunFig9b(s, nil); err == nil {
		t.Error("fig9b with no counts accepted")
	}
	if _, err := RunFig9b(s, []int{0}); err == nil {
		t.Error("fig9b with zero count accepted")
	}
	if _, err := RunFig9a(s, nil); err == nil {
		t.Error("fig9a with no counts accepted")
	}
}

func TestCapacityScenarioOrdering(t *testing.T) {
	s := testSetup(t)
	trace, err := workload.GenerateTrace(s.V2, workload.DefaultTraceConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunCapacity(s, trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Render() {
		t.Log(row)
	}
	var none, static, adaptive CapacityRow
	for _, row := range r.Rows {
		switch row.Scenario {
		case ScenarioNone:
			none = row
		case ScenarioStatic:
			static = row
		case ScenarioAdaptive:
			adaptive = row
		}
	}
	// Direct has no server computing; static (vary) is the most
	// expensive; adaptive sits in between, so adaptive capacity beats
	// static — the paper's system-capacity claim.
	if none.ServerSecPerReq != 0 {
		t.Errorf("no-adaptation server compute = %v, want 0", none.ServerSecPerReq)
	}
	if !(adaptive.ServerSecPerReq < static.ServerSecPerReq) {
		t.Errorf("adaptive server demand %v not below static %v", adaptive.ServerSecPerReq, static.ServerSecPerReq)
	}
	if !(adaptive.MaxReqPerSec > static.MaxReqPerSec) {
		t.Errorf("adaptive capacity %v not above static %v", adaptive.MaxReqPerSec, static.MaxReqPerSec)
	}
	if _, err := RunCapacity(s, nil); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestTimelinePhases(t *testing.T) {
	s := testSetup(t)
	golden, err := os.ReadFile("../../figures_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(golden), "== Extension: first-contact timeline per station (Figure 4 sequence) ==\n")
	section, _, _ = strings.Cut(section, "\n\n")
	var rendered []string
	for _, st := range netsim.Stations() {
		tl, err := RunTimeline(s, st)
		if err != nil {
			t.Fatal(err)
		}
		rendered = append(rendered, tl.Render()...)
		if len(tl.Phases) != 5 {
			t.Fatalf("%s: %d phases, want 5", st.Device.Name, len(tl.Phases))
		}
		// Phases are contiguous and ordered.
		var prev time.Duration
		for _, p := range tl.Phases {
			if p.Start != prev {
				t.Fatalf("%s: phase %s starts at %v, want %v", st.Device.Name, p.Name, p.Start, prev)
			}
			if p.End < p.Start {
				t.Fatalf("%s: phase %s ends before it starts", st.Device.Name, p.Name)
			}
			prev = p.End
		}
		if tl.Total != prev {
			t.Fatalf("%s: total %v != last phase end %v", st.Device.Name, tl.Total, prev)
		}
	}
	// Every row is the one figures_output.txt records for the default
	// platform.
	if got := strings.Join(rendered, "\n"); got != section {
		t.Errorf("timeline rows differ from figures_output.txt:\n%s\nwant:\n%s", got, section)
	}
	// The PDA's first contact is dominated by the slow link; it must take
	// far longer than the desktop's.
	desk, err := RunTimeline(s, netsim.Desktop)
	if err != nil {
		t.Fatal(err)
	}
	pda, err := RunTimeline(s, netsim.PDA)
	if err != nil {
		t.Fatal(err)
	}
	if pda.Total < 10*desk.Total {
		t.Errorf("PDA first contact %v not much slower than desktop %v", pda.Total, desk.Total)
	}
}

// The paper's premise, from the authors' prior study [30]: no single
// protocol wins across document classes and environments.
func TestPremiseNoUniversalWinner(t *testing.T) {
	r, err := RunPremise(2005)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Render() {
		t.Log(row)
	}
	if len(r.Cells) != 12 {
		t.Fatalf("cells = %d, want 4 classes x 3 stations", len(r.Cells))
	}
	if r.DistinctWinners() < 2 {
		t.Fatal("a single protocol won everywhere; the premise experiment is broken")
	}
	// Pre-compressed content must defeat gzip: direct (or a differencing
	// protocol) should beat it on bytes.
	pc := r.Bytes["precompressed"]
	if pc[codec.NameGzip] < pc[codec.NameDirect]*9/10 {
		t.Errorf("gzip compressed the incompressible class: %d vs direct %d", pc[codec.NameGzip], pc[codec.NameDirect])
	}
	// Static archives are nearly free for differencing protocols.
	sa := r.Bytes["static-archive"]
	if sa[codec.NameVaryBlock] > sa[codec.NameDirect]/10 {
		t.Errorf("vary on static archive = %d bytes vs direct %d; diffing broken", sa[codec.NameVaryBlock], sa[codec.NameDirect])
	}
}

// rhoPoint is the winner set at one value of the available-bandwidth
// fraction ρ.
type rhoPoint struct {
	Rho     float64
	Winners map[string]string // station -> protocol
}

// runRhoSweep evaluates the Figure 11(b) winner per station across a ρ
// range, the sensitivity ablation DESIGN.md calls out: the paper fixes
// ρ≈0.8 after observing deployments between 0.6 and 0.8, so the selection
// should be stable across that band.
func runRhoSweep(s *Setup, rhos []float64) ([]rhoPoint, error) {
	if len(rhos) == 0 {
		return nil, fmt.Errorf("experiment: rho sweep needs values")
	}
	var out []rhoPoint
	for _, rho := range rhos {
		model := s.Model
		model.Rho = rho
		point := rhoPoint{Rho: rho, Winners: map[string]string{}}
		for _, st := range netsim.Stations() {
			env := EnvFor(st)
			best, bestTotal := "", -1.0
			for _, proto := range []string{codec.NameDirect, codec.NameGzip, codec.NameBitmap, codec.NameVaryBlock} {
				pad, err := s.PADByProtocol(proto)
				if err != nil {
					return nil, err
				}
				b, err := model.PADTotal(pad, env)
				if err != nil {
					return nil, fmt.Errorf("experiment: rho %.2f: %w", rho, err)
				}
				if total := b.Total(); bestTotal < 0 || total < bestTotal {
					best, bestTotal = proto, total
				}
			}
			point.Winners[st.Device.Name] = best
		}
		out = append(out, point)
	}
	return out, nil
}

// The rho ablation: the per-station selection must be stable across the
// paper's observed deployment band [0.6, 0.8].
func TestRhoSweepStability(t *testing.T) {
	s := testSetup(t)
	points, err := runRhoSweep(s, []float64{0.6, 0.7, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	base := points[0].Winners
	for _, p := range points[1:] {
		for station, proto := range p.Winners {
			if base[station] != proto {
				t.Errorf("rho %.2f flips %s from %s to %s", p.Rho, station, base[station], proto)
			}
		}
	}
	if _, err := runRhoSweep(s, nil); err == nil {
		t.Error("empty sweep accepted")
	}
}

// sessionRow finds the row for a station/scenario pair.
func sessionRow(r SessionResult, station string, sc Scenario) (SessionRow, error) {
	for _, row := range r.Rows {
		if row.Station == station && row.Scenario == sc {
			return row, nil
		}
	}
	return SessionRow{}, fmt.Errorf("no session row for %s/%s", station, sc)
}

// Session-level client total delay: adaptive wins whole sessions on the
// constrained stations even after paying for negotiation and PAD
// download; on the desktop LAN the startup cost makes it a wash with
// direct, never a loss beyond that startup.
func TestSessionTotals(t *testing.T) {
	s := testSetup(t)
	r, err := RunSessionTotals(s, 75)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Render() {
		t.Log(row)
	}
	if len(r.Rows) != 9 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, station := range []string{"Laptop", "PDA"} {
		none, err := sessionRow(r, station, ScenarioNone)
		if err != nil {
			t.Fatal(err)
		}
		adaptive, err := sessionRow(r, station, ScenarioAdaptive)
		if err != nil {
			t.Fatal(err)
		}
		if adaptive.Total >= none.Total {
			t.Errorf("%s: adaptive session %v not below none %v", station, adaptive.Total, none.Total)
		}
		static, err := sessionRow(r, station, ScenarioStatic)
		if err != nil {
			t.Fatal(err)
		}
		if adaptive.Total >= static.Total {
			t.Errorf("%s: adaptive session %v not below static %v", station, adaptive.Total, static.Total)
		}
	}
	// Desktop: adaptive == direct protocol, so the only delta is the
	// bounded startup cost.
	dNone, _ := sessionRow(r, "Desktop", ScenarioNone)
	dAd, _ := sessionRow(r, "Desktop", ScenarioAdaptive)
	if dAd.Total < dNone.Total {
		t.Error("desktop adaptive cheaper than direct despite startup cost")
	}
	if dAd.Total > dNone.Total+time.Second {
		t.Errorf("desktop startup cost %v unreasonable", dAd.Total-dNone.Total)
	}
	if _, err := RunSessionTotals(s, 0); err == nil {
		t.Error("zero-request session accepted")
	}
}
