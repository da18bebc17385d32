// Extension demonstrates the property the paper's introduction motivates:
// "dynamically retrieving the necessary protocol module in an on-demand
// manner". A deployment is running with the four case-study protocols; the
// operator then introduces a FIFTH protocol — fix-sized blocking as used
// by rsync — without restarting anything:
//
//  1. the application server signs and publishes the new PAD module,
//  2. pushes an updated AppMeta (the PAT grows a node; the proxy's
//     adaptation cache is invalidated),
//  3. the next client negotiation can select the new protocol, and the
//     client executes mobile code it had never seen before.
//
// Run with:
//
//	go run ./examples/extension
package main

import (
	"fmt"
	"log"

	"fractal"
	"fractal/internal/client"
	"fractal/internal/codec"
	"fractal/internal/core"
	"fractal/internal/mobilecode"
	"fractal/internal/netsim"
)

func main() {
	s, err := fractal.NewExperimentSetup(fractal.DefaultExperimentConfig())
	check(err)

	newClient := func() *fractal.Client {
		c, err := fractal.NewClient(fractal.ClientConfig{
			Env:             fractal.EnvFor(netsim.PDA),
			SessionRequests: s.Model.SessionRequests,
			Trust:           s.Trust,
			Sandbox:         mobilecode.DefaultSandbox(),
		},
			s.Proxy,
			&client.CDNFetcher{CDN: s.CDN, Region: "region-0", Link: netsim.Bluetooth},
			s.App,
		)
		check(err)
		return c
	}

	before := newClient()
	pads, err := before.EnsureProtocol("webapp")
	check(err)
	fmt.Printf("before extension: PDA negotiates %s\n", pads[0].Protocol)

	// --- the operator introduces rsync at run time ---
	// Build, sign, register, and measure the new PAD on the live server;
	// republish the module set; extend and push the topology. The proxy's
	// adaptation cache is flushed by the push, so the very next
	// negotiation sees the grown PAT.
	meta, err := s.App.DeployExtraPAD(mobilecode.RsyncSpec(), "1.0", 4)
	check(err)
	check(s.App.PublishPADs(s.CDN.Origin()))
	app := s.AppMeta
	app.PADs = append(append([]core.PADMeta(nil), app.PADs...), meta)
	check(s.Proxy.PushAppMeta(app))
	fmt.Printf("operator added %s (%s, %d-byte module, measured %d wire bytes/request)\n",
		meta.ID, codec.NameRsync, meta.Size, meta.Overhead.TrafficBytes+meta.Overhead.UpstreamBytes)

	after := newClient()
	pads, err = after.EnsureProtocol("webapp")
	check(err)
	fmt.Printf("after extension:  PDA negotiates %s\n", pads[0].Protocol)

	data, err := after.Request("webapp", "page-000")
	check(err)
	st := after.Stats()
	fmt.Printf("fetched %d content bytes over %d wire bytes using freshly deployed mobile code\n",
		len(data), st.PayloadBytes)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
