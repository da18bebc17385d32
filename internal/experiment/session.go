package experiment

import (
	"fmt"
	"time"

	"fractal/internal/netsim"
)

// SessionRow is the end-to-end cost of one full application session (the
// paper's "client total delay" improvement, contribution 4): negotiation,
// one PAD download, and N adapted requests.
type SessionRow struct {
	Station    string
	Scenario   Scenario
	Protocol   string
	Total      time.Duration
	PerRequest time.Duration
}

// SessionResult compares session totals per station and scenario.
type SessionResult struct {
	Requests int
	Rows     []SessionRow
}

// RunSessionTotals evaluates the complete session for each station under
// each scenario: Equation 3 per request (with the PAD download amortized
// over the session) plus the negotiation round trips and per-request RTTs.
// The no-adaptation scenario skips negotiation and PAD download entirely,
// which is exactly its trade: no startup cost, no per-request savings.
func RunSessionTotals(s *Setup, requests int) (SessionResult, error) {
	if requests < 1 {
		return SessionResult{}, fmt.Errorf("experiment: session needs >= 1 request, got %d", requests)
	}
	model := s.Model
	model.SessionRequests = requests
	out := SessionResult{Requests: requests}
	for _, st := range netsim.Stations() {
		env := EnvFor(st)
		for _, sc := range []Scenario{ScenarioNone, ScenarioStatic, ScenarioAdaptive} {
			proto, err := s.protocolFor(sc, env, model.IncludeServerComp)
			if err != nil {
				return SessionResult{}, err
			}
			pad, err := s.PADByProtocol(proto)
			if err != nil {
				return SessionResult{}, err
			}
			if sc == ScenarioNone {
				// Direct sending without Fractal: no PAD to fetch.
				pad.Size = 0
			}
			b, err := model.PADTotal(pad, env)
			if err != nil {
				return SessionResult{}, err
			}
			perReq, err := netsim.Seconds(b.Total())
			if err != nil {
				return SessionResult{}, err
			}
			total := time.Duration(requests) * (perReq + st.Link.RTT)
			if sc != ScenarioNone {
				// Two negotiation round trips plus proxy computation.
				total += 2*st.Link.RTT + defaultTimelineParams.negotiationCPU
				deploy, err := st.Device.ScaleCompute(defaultTimelineParams.deployCPUStd)
				if err != nil {
					return SessionResult{}, err
				}
				total += deploy
			}
			out.Rows = append(out.Rows, SessionRow{
				Station:    st.Device.Name,
				Scenario:   sc,
				Protocol:   proto,
				Total:      total,
				PerRequest: perReq,
			})
		}
	}
	return out, nil
}

// Render renders the comparison.
func (r SessionResult) Render() []string {
	rows := []string{fmt.Sprintf("station\tscenario\tprotocol\tsession_total\tper_request\t(%d requests)", r.Requests)}
	for _, row := range r.Rows {
		rows = append(rows, fmt.Sprintf("%s\t%s\t%s\t%v\t%v",
			row.Station, row.Scenario, row.Protocol,
			row.Total.Round(time.Millisecond), row.PerRequest.Round(10*time.Microsecond)))
	}
	return rows
}
