package netsim

import (
	"fmt"
	"time"
)

// SharedServer models a server whose uplink bandwidth is shared fairly by
// all concurrent downloads. It captures the contention effect behind the
// paper's Figure 9(b): a centralized PAD server's per-client retrieval time
// grows with client count once the shared uplink, divided N ways, drops
// below each client's own access bandwidth, while CDN edgeservers keep the
// per-client share above that threshold.
type SharedServer struct {
	Name       string
	UplinkKbps float64       // raw uplink bandwidth
	Rho        float64       // application-level efficiency, as for Link
	BaseRTT    time.Duration // network distance from clients to this server
}

// Validate reports whether the server parameters are usable.
func (s SharedServer) Validate() error {
	if s.UplinkKbps <= 0 {
		return fmt.Errorf("netsim: server %q: uplink must be positive, got %v", s.Name, s.UplinkKbps)
	}
	if s.Rho <= 0 || s.Rho > 1 {
		return fmt.Errorf("netsim: server %q: rho must be in (0,1], got %v", s.Name, s.Rho)
	}
	if s.BaseRTT < 0 {
		return fmt.Errorf("netsim: server %q: negative RTT %v", s.Name, s.BaseRTT)
	}
	return nil
}

// RetrievalTime returns the time for one client among `concurrent`
// simultaneous downloaders to fetch n bytes. The client sees the smaller of
// its own effective access bandwidth and a fair 1/concurrent share of the
// server's effective uplink.
func (s SharedServer) RetrievalTime(n int64, concurrent int, client Link) (time.Duration, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	if err := client.Validate(); err != nil {
		return 0, err
	}
	if concurrent < 1 {
		return 0, fmt.Errorf("netsim: concurrency must be >= 1, got %d", concurrent)
	}
	if n < 0 {
		return 0, fmt.Errorf("netsim: negative transfer size %d", n)
	}
	share := s.UplinkKbps * s.Rho / float64(concurrent)
	eff := client.EffectiveKbps()
	if share < eff {
		eff = share
	}
	secs := float64(n) * 8.0 / (eff * 1000.0)
	d, err := Seconds(secs)
	if err != nil {
		return 0, err
	}
	return s.BaseRTT + client.RTT + d, nil
}
