// Roaming follows the paper's introductory scenario: "a person uses a
// laptop with a cable modem at home, a cell phone ... on the way to the
// office, a desktop with Ethernet LAN in the office and a PDA with Wi-Fi
// in the meeting room." One logical user moves across the three
// experimental stations; at each hop the client re-probes its metadata,
// renegotiates with the adaptation proxy, deploys the newly selected PAD,
// and continues the same application session.
//
// Run with:
//
//	go run ./examples/roaming
package main

import (
	"fmt"
	"log"

	"fractal"
	"fractal/internal/client"
	"fractal/internal/mobilecode"
	"fractal/internal/netsim"
)

func main() {
	s, err := fractal.NewExperimentSetup(fractal.DefaultExperimentConfig())
	check(err)

	hops := []struct {
		where   string
		station netsim.Station
		region  string
	}{
		{"office desktop on Ethernet LAN", netsim.Desktop, "region-0"},
		{"home laptop on 802.11 WLAN", netsim.Laptop, "region-1"},
		{"meeting-room PDA on Bluetooth", netsim.PDA, "region-2"},
	}

	c, err := fractal.NewClient(fractal.ClientConfig{
		Env:             fractal.EnvFor(hops[0].station),
		SessionRequests: s.Model.SessionRequests,
		Trust:           s.Trust,
		Sandbox:         mobilecode.DefaultSandbox(),
	},
		s.Proxy,
		&client.CDNFetcher{CDN: s.CDN, Region: hops[0].region, Link: hops[0].station.Link},
		s.App,
	)
	check(err)

	var lastWire int64
	for i, hop := range hops {
		if i > 0 {
			// Device/network handoff: re-probe metadata; the protocol
			// cache is invalidated and the next request renegotiates.
			check(c.SetEnv(fractal.EnvFor(hop.station)))
		}
		pads, err := c.EnsureProtocol("webapp")
		check(err)
		resource := fmt.Sprintf("page-%03d", i)
		_, err = c.Request("webapp", resource)
		check(err)
		st := c.Stats()
		fmt.Printf("%-34s negotiated %-9s  %7d wire bytes for %s\n",
			hop.where, pads[0].Protocol, st.PayloadBytes-lastWire, resource)
		lastWire = st.PayloadBytes
	}

	st := c.Stats()
	fmt.Printf("\nsession: %d requests, %d negotiations (one per environment), %d PAD downloads\n",
		st.Requests, st.Negotiations, st.PADDownloads)
	if st.SecurityRejections != 0 {
		log.Fatalf("unexpected security rejections: %d", st.SecurityRejections)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
