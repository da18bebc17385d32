package netsim

import (
	"fmt"
	"time"
)

// NetworkType identifies the connection medium of a client, matching the
// paper's experimental platform (Figure 7).
type NetworkType string

// Network types used by the paper's evaluation.
const (
	NetLAN       NetworkType = "LAN"
	NetWLAN      NetworkType = "WLAN"
	NetBluetooth NetworkType = "Bluetooth"
)

// DefaultRho is the application-level available-bandwidth fraction the
// paper approximates for its deployments (Section 3.4.2: "usually between
// 0.6 to 0.8 ... we approximate ρ as 0.8").
const DefaultRho = 0.8

// Link models a network connection at the application level: raw bandwidth,
// round-trip latency, and the fraction ρ of raw bandwidth actually usable
// by the application.
type Link struct {
	Type          NetworkType
	BandwidthKbps float64 // raw link bandwidth in kilobits per second
	RTT           time.Duration
	Rho           float64 // application-level efficiency in (0, 1]
	// LossRate is the fraction of frames lost and retransmitted on the
	// medium (wireless interference, Bluetooth co-channel noise); the
	// effective bandwidth scales by (1 - LossRate). Zero for clean links.
	LossRate float64
}

// Validate reports whether the link parameters are usable.
func (l Link) Validate() error {
	if l.BandwidthKbps <= 0 {
		return fmt.Errorf("netsim: link %q: bandwidth must be positive, got %v", l.Type, l.BandwidthKbps)
	}
	if l.Rho <= 0 || l.Rho > 1 {
		return fmt.Errorf("netsim: link %q: rho must be in (0,1], got %v", l.Type, l.Rho)
	}
	if l.RTT < 0 {
		return fmt.Errorf("netsim: link %q: negative RTT %v", l.Type, l.RTT)
	}
	if l.LossRate < 0 || l.LossRate >= 1 {
		return fmt.Errorf("netsim: link %q: loss rate %v out of [0,1)", l.Type, l.LossRate)
	}
	return nil
}

// EffectiveKbps returns the application-visible bandwidth ρ·bw·(1-loss).
func (l Link) EffectiveKbps() float64 {
	return l.BandwidthKbps * l.Rho * (1 - l.LossRate)
}

// TransferTime returns the simulated time to move n bytes across the link:
// one RTT of setup plus serialization at the effective bandwidth. This is
// the first and last terms of the paper's Equation 3.
func (l Link) TransferTime(n int64) (time.Duration, error) {
	if err := l.Validate(); err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("netsim: negative transfer size %d", n)
	}
	secs := float64(n) * 8.0 / (l.EffectiveKbps() * 1000.0)
	d, err := Seconds(secs)
	if err != nil {
		return 0, fmt.Errorf("netsim: transfer of %d bytes: %w", n, err)
	}
	return l.RTT + d, nil
}

// Standard links matching the paper's platform. Bandwidths: 100 Mbps
// switched Ethernet, 11 Mbps 802.11b, 723 kbps Bluetooth 1.1; RTTs are
// representative medium values.
var (
	LAN       = Link{Type: NetLAN, BandwidthKbps: 100000, RTT: 300 * time.Microsecond, Rho: DefaultRho}
	WLAN      = Link{Type: NetWLAN, BandwidthKbps: 11000, RTT: 3 * time.Millisecond, Rho: DefaultRho}
	Bluetooth = Link{Type: NetBluetooth, BandwidthKbps: 723, RTT: 30 * time.Millisecond, Rho: DefaultRho}
)
