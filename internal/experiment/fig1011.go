package experiment

import (
	"fmt"
	"time"

	"fractal/internal/codec"
	"fractal/internal/core"
	"fractal/internal/netsim"
)

// Scenario names the three adaptation strategies compared in Figures 10
// and 11.
type Scenario string

// The compared strategies (Section 4.4.2).
const (
	// ScenarioNone: no communication optimization protocol; the client
	// receives the original page directly.
	ScenarioNone Scenario = "none"
	// ScenarioStatic: every client always uses Vary-sized blocking
	// without negotiation (the paper's "fixed protocol adaptation").
	ScenarioStatic Scenario = "static"
	// ScenarioAdaptive: the full Fractal negotiation.
	ScenarioAdaptive Scenario = "adaptive"
)

// OverheadRow is one bar of Figure 10/11: a station under a scenario, the
// protocol that scenario uses there, and the Equation 3 terms.
type OverheadRow struct {
	Station  string
	Scenario Scenario
	Protocol string
	// Per-request seconds.
	ServerComp float64
	ClientComp float64
	Traffic    float64
	Download   float64
	Bytes      int64 // traffic + upstream bytes per request
}

// Total returns the summed per-request overhead in seconds.
func (r OverheadRow) Total() float64 {
	return r.ServerComp + r.ClientComp + r.Traffic + r.Download
}

// ScenarioResult is the full Figure 10/11 grid for one server strategy.
type ScenarioResult struct {
	IncludeServerComp bool
	Rows              []OverheadRow
}

// protocolFor resolves the protocol a scenario uses for an environment;
// for the adaptive scenario it runs the real negotiation through the
// proxy.
func (s *Setup) protocolFor(sc Scenario, env core.Env, includeServer bool) (string, error) {
	switch sc {
	case ScenarioNone:
		return codec.NameDirect, nil
	case ScenarioStatic:
		return codec.NameVaryBlock, nil
	case ScenarioAdaptive:
		model := s.Model
		model.IncludeServerComp = includeServer
		// Search the setup's tree directly, not through the proxy, so the
		// Fig 11(b) and (c) runs don't pollute each other through the
		// adaptation cache.
		res, err := core.FindPath(s.pat, model, env)
		if err != nil {
			return "", err
		}
		return res.PADs[len(res.PADs)-1].Protocol, nil
	default:
		return "", fmt.Errorf("experiment: unknown scenario %q", sc)
	}
}

// RunScenarios evaluates the three adaptation scenarios for each of the
// paper's stations under the given server strategy. With
// includeServerComp=true this is Figures 10(a–c)/11(b); with false it is
// Figures 10(d)/11(c).
func RunScenarios(s *Setup, includeServerComp bool) (ScenarioResult, error) {
	model := s.Model
	model.IncludeServerComp = includeServerComp
	out := ScenarioResult{IncludeServerComp: includeServerComp}
	for _, st := range netsim.Stations() {
		env := EnvFor(st)
		for _, sc := range []Scenario{ScenarioNone, ScenarioStatic, ScenarioAdaptive} {
			proto, err := s.protocolFor(sc, env, includeServerComp)
			if err != nil {
				return ScenarioResult{}, fmt.Errorf("experiment: %s/%s: %w", st.Device.Name, sc, err)
			}
			pad, err := s.PADByProtocol(proto)
			if err != nil {
				return ScenarioResult{}, err
			}
			b, err := model.PADTotal(pad, env)
			if err != nil {
				return ScenarioResult{}, fmt.Errorf("experiment: %s/%s: %w", st.Device.Name, sc, err)
			}
			out.Rows = append(out.Rows, OverheadRow{
				Station:    st.Device.Name,
				Scenario:   sc,
				Protocol:   proto,
				ServerComp: b.ServerComp,
				ClientComp: b.ClientComp,
				Traffic:    b.Traffic,
				Download:   b.Download,
				Bytes:      pad.Overhead.TrafficBytes + pad.Overhead.UpstreamBytes,
			})
		}
	}
	return out, nil
}

// Row returns the entry for a station/scenario pair.
func (r ScenarioResult) Row(station string, sc Scenario) (OverheadRow, error) {
	for _, row := range r.Rows {
		if row.Station == station && row.Scenario == sc {
			return row, nil
		}
	}
	return OverheadRow{}, fmt.Errorf("experiment: no row for %s/%s", station, sc)
}

// ComputingRows renders Figure 10: the computing-overhead components per
// station and scenario.
func (r ScenarioResult) ComputingRows() []string {
	rows := []string{fmt.Sprintf("station\tscenario\tprotocol\tserver_comp\tclient_comp\t(server_comp_included=%v)", r.IncludeServerComp)}
	for _, row := range r.Rows {
		rows = append(rows, fmt.Sprintf("%s\t%s\t%s\t%s\t%s",
			row.Station, row.Scenario, row.Protocol,
			secs(row.ServerComp), secs(row.ClientComp)))
	}
	return rows
}

// TotalRows renders Figure 11(b)/(c): total time per station and scenario.
func (r ScenarioResult) TotalRows() []string {
	rows := []string{fmt.Sprintf("station\tscenario\tprotocol\ttotal_time\t(server_comp_included=%v)", r.IncludeServerComp)}
	for _, row := range r.Rows {
		rows = append(rows, fmt.Sprintf("%s\t%s\t%s\t%s",
			row.Station, row.Scenario, row.Protocol, secs(row.Total())))
	}
	return rows
}

func secs(v float64) string {
	return time.Duration(v * float64(time.Second)).Round(10 * time.Microsecond).String()
}

// Fig11aRow is one bar of Figure 11(a): bytes transferred per protocol.
type Fig11aRow struct {
	Protocol string
	Bytes    int64 // downstream + upstream per request
}

// Fig11aResult is the bytes-transferred comparison, smallest last as the
// paper plots it.
type Fig11aResult struct {
	Rows []Fig11aRow
}

// RunFig11a reports the measured per-request bytes of each protocol on
// the corpus. "The same protocol should generate the same number of bytes
// transferred, no matter the kind of client environment."
func RunFig11a(s *Setup) (Fig11aResult, error) {
	order := []string{codec.NameDirect, codec.NameGzip, codec.NameBitmap, codec.NameVaryBlock}
	var out Fig11aResult
	for _, proto := range order {
		pad, err := s.PADByProtocol(proto)
		if err != nil {
			return Fig11aResult{}, err
		}
		out.Rows = append(out.Rows, Fig11aRow{
			Protocol: proto,
			Bytes:    pad.Overhead.TrafficBytes + pad.Overhead.UpstreamBytes,
		})
	}
	return out, nil
}

// Render renders the comparison.
func (r Fig11aResult) Render() []string {
	rows := []string{"protocol\tbytes_per_request"}
	for _, row := range r.Rows {
		rows = append(rows, fmt.Sprintf("%s\t%d", row.Protocol, row.Bytes))
	}
	return rows
}

// Fig11Grid is the per-protocol total time per station: every bar of
// Figures 11(b)/(c), not only the scenario winners.
type Fig11Grid struct {
	IncludeServerComp bool
	// Totals[station][protocol] = per-request total seconds.
	Totals map[string]map[string]float64
	// Winner[station] = least-total protocol, which must match the
	// adaptive negotiation.
	Winner map[string]string
}

// RunFig11Grid evaluates every protocol in every environment.
func RunFig11Grid(s *Setup, includeServerComp bool) (Fig11Grid, error) {
	model := s.Model
	model.IncludeServerComp = includeServerComp
	grid := Fig11Grid{
		IncludeServerComp: includeServerComp,
		Totals:            map[string]map[string]float64{},
		Winner:            map[string]string{},
	}
	protos := []string{codec.NameDirect, codec.NameGzip, codec.NameBitmap, codec.NameVaryBlock}
	for _, st := range netsim.Stations() {
		env := EnvFor(st)
		grid.Totals[st.Device.Name] = map[string]float64{}
		best, bestTotal := "", -1.0
		for _, proto := range protos {
			pad, err := s.PADByProtocol(proto)
			if err != nil {
				return Fig11Grid{}, err
			}
			b, err := model.PADTotal(pad, env)
			if err != nil {
				return Fig11Grid{}, err
			}
			total := b.Total()
			grid.Totals[st.Device.Name][proto] = total
			if bestTotal < 0 || total < bestTotal {
				best, bestTotal = proto, total
			}
		}
		grid.Winner[st.Device.Name] = best
	}
	return grid, nil
}

// Rows renders the grid.
func (g Fig11Grid) Rows() []string {
	rows := []string{fmt.Sprintf("station\tdirect\tgzip\tbitmap\tvaryblock\twinner\t(server_comp_included=%v)", g.IncludeServerComp)}
	for _, st := range netsim.Stations() {
		name := st.Device.Name
		t := g.Totals[name]
		rows = append(rows, fmt.Sprintf("%s\t%s\t%s\t%s\t%s\t%s",
			name, secs(t[codec.NameDirect]), secs(t[codec.NameGzip]),
			secs(t[codec.NameBitmap]), secs(t[codec.NameVaryBlock]), g.Winner[name]))
	}
	return rows
}
