// Contentadapt demonstrates the generalization sketched in the paper's
// Section 5: "Fractal provides a general framework for other adaptation
// functionality as well by extending the PAD into other adaptation
// functions, e.g. content adaptation." The application deploys a TWO-LEVEL
// protocol adaptation tree — content renditions (full fidelity vs
// thumbnail) at the first level, communication-optimization protocols at
// the second — and the path search picks a complete path per client: the
// big-screen desktop keeps full fidelity, the PDA gets thumbnails
// gzip-compressed over Bluetooth.
//
// Run with:
//
//	go run ./examples/contentadapt
package main

import (
	"fmt"
	"log"

	"fractal/internal/appserver"
	"fractal/internal/cdn"
	"fractal/internal/client"
	"fractal/internal/core"
	"fractal/internal/experiment"
	"fractal/internal/mobilecode"
	"fractal/internal/netsim"
	"fractal/internal/proxy"
	"fractal/internal/workload"
)

func main() {
	signer, err := mobilecode.NewSigner("clinic-operator")
	check(err)
	app, err := appserver.New("webapp-ca", signer)
	check(err)
	v1, err := workload.Generate(workload.Config{
		Pages: 6, TextBytes: 4096, Images: 4, ImageBytes: 32 * 1024, Seed: 51,
	})
	check(err)
	v2, err := workload.MutateCorpus(v1, workload.DefaultMutation(52))
	check(err)
	check(app.InstallCorpus(v1, v2))
	check(app.DeployPADs("1.0"))
	check(app.DeployContentAdaptation("1.0"))

	appMeta, err := app.MeasureContentAdaptationAppMeta(4)
	check(err)
	pat, err := core.BuildPAT(appMeta)
	check(err)
	fmt.Printf("two-level PAT: %d nodes, %d root-to-leaf paths\n", pat.Len(), len(pat.Paths()))

	// The content-adaptation matrices add the screen-resolution-style
	// suitability parameter: thumbnails are disqualified on large
	// displays.
	matrices, err := core.ContentAdaptationMatrices()
	check(err)
	px, err := proxy.New(core.OverheadModel{
		Matrices:          matrices,
		Rho:               netsim.DefaultRho,
		ServerCPUMHz:      netsim.ServerDevice.CPUMHz,
		IncludeServerComp: true,
		SessionRequests:   6,
	}, 256)
	check(err)
	check(px.PushAppMeta(appMeta))

	topo, err := cdn.DefaultTopology(4)
	check(err)
	check(app.PublishPADs(topo.Origin()))
	trust := mobilecode.NewTrustList()
	entity, key := app.TrustedKey()
	check(trust.Add(entity, key))

	for _, hop := range []struct {
		station netsim.Station
		region  string
	}{
		{netsim.Desktop, "region-0"},
		{netsim.PDA, "region-1"},
	} {
		c, err := client.New(client.Config{
			Env:             experiment.EnvFor(hop.station),
			SessionRequests: 6,
			Trust:           trust,
			Sandbox:         mobilecode.DefaultSandbox(),
		},
			px,
			&client.CDNFetcher{CDN: topo, Region: hop.region, Link: hop.station.Link},
			app,
		)
		check(err)
		pads, err := c.EnsureProtocol("webapp-ca")
		check(err)
		path := ""
		for i, p := range pads {
			if i > 0 {
				path += " -> "
			}
			path += p.Protocol
		}
		data, err := c.Request("webapp-ca", "page-000")
		check(err)
		st := c.Stats()
		fmt.Printf("%-8s negotiated path [%s]: %6d content bytes over %6d wire bytes\n",
			hop.station.Device.Name, path, len(data), st.PayloadBytes)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
