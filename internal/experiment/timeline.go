package experiment

import (
	"fmt"
	"time"

	"fractal/internal/core"
	"fractal/internal/netsim"
)

// TimelinePhase is one stage of a client's first contact with a Fractal
// application, following Figure 4 top to bottom.
type TimelinePhase struct {
	Name  string
	Start time.Duration
	End   time.Duration
}

// Timeline is the simulated end-to-end schedule of one client session:
// negotiation round trips, PAD retrieval, deployment, and the first
// adapted application request, in virtual time.
type Timeline struct {
	Station string
	PADID   string
	Phases  []TimelinePhase
	Total   time.Duration
}

// timelineParams are the latency/compute constants of the simulated
// control plane (negotiation messages are small; one RTT per exchange).
type timelineParams struct {
	negotiationCPU time.Duration // proxy-side search + cache work
	deployCPUStd   time.Duration // client-side verify+deploy on the reference CPU
}

var defaultTimelineParams = timelineParams{
	negotiationCPU: 200 * time.Microsecond,
	deployCPUStd:   12 * time.Millisecond,
}

// RunTimeline simulates the Figure 4 message sequence for one station in
// virtual time, each phase starting where the previous one ends:
// INIT_REQ/REP + CLI_META exchanges (two proxy round trips), PAD_META
// computation, PAD download from the closest edge, security checks and
// deployment, then APP_REQ/REP with the negotiated protocol's traffic and
// computing overheads from Equation 3.
func RunTimeline(s *Setup, station netsim.Station) (Timeline, error) {
	env := EnvFor(station)
	res, err := core.FindPath(mustPAT(s), s.Model, env)
	if err != nil {
		return Timeline{}, fmt.Errorf("experiment: timeline: %w", err)
	}
	pad := res.PADs[len(res.PADs)-1]
	breakdown := res.Breakdown[res.NodeIDs[len(res.NodeIDs)-1]]

	tl := Timeline{Station: station.Device.Name, PADID: pad.ID}
	link := station.Link

	phase := func(name string, d time.Duration) {
		tl.Phases = append(tl.Phases, TimelinePhase{Name: name, Start: tl.Total, End: tl.Total + d})
		tl.Total += d
	}

	// Negotiation: INIT_REQ -> INIT_REP + CLI_META_REQ (one round trip),
	// CLI_META_REP -> PAD_META_REP (one round trip + proxy computation).
	phase("negotiate:init", link.RTT)
	phase("negotiate:metadata", link.RTT+defaultTimelineParams.negotiationCPU)

	// PAD retrieval from the closest edge (uncontended).
	ret, err := s.CDN.Retrieve("region-0", pad.URL, link, 1)
	if err != nil {
		return Timeline{}, fmt.Errorf("experiment: timeline retrieval: %w", err)
	}
	phase("pad:download", ret.Time)

	// Security checks + sandbox deployment, scaled to the device.
	deploy, err := station.Device.ScaleCompute(defaultTimelineParams.deployCPUStd)
	if err != nil {
		return Timeline{}, err
	}
	phase("pad:deploy", deploy)

	// First application request: server compute, downstream transfer,
	// client compute (Equation 3 terms for one request).
	appTime, err := netsim.Seconds(breakdown.ServerComp + breakdown.Traffic + breakdown.ClientComp)
	if err != nil {
		return Timeline{}, err
	}
	phase("app:first-request", link.RTT+appTime)
	return tl, nil
}

// Render renders the timeline.
func (t Timeline) Render() []string {
	rows := []string{fmt.Sprintf("%s first contact via %s (total %v)", t.Station, t.PADID, t.Total.Round(time.Microsecond))}
	for _, p := range t.Phases {
		rows = append(rows, fmt.Sprintf("  %-22s %12v -> %12v (%v)",
			p.Name, p.Start.Round(time.Microsecond), p.End.Round(time.Microsecond),
			(p.End-p.Start).Round(time.Microsecond)))
	}
	return rows
}
