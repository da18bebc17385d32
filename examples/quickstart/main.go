// Quickstart wires a complete Fractal deployment in one process — content
// corpus, application server with signed PAD modules, adaptation proxy,
// CDN — then walks one client through the full life cycle: negotiation,
// PAD download, security checks, sandboxed deployment, and an adapted
// application session.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"fractal"
	"fractal/internal/client"
	"fractal/internal/mobilecode"
	"fractal/internal/netsim"
	"fractal/internal/workload"
)

func main() {
	// 1. The application operator generates content and a signing key.
	signer, err := fractal.NewSigner("quickstart-operator")
	check(err)
	app, err := fractal.NewAppServer("webapp", signer)
	check(err)

	v1, err := fractal.GenerateCorpus(workload.Config{
		Pages: 8, TextBytes: 4096, Images: 4, ImageBytes: 32 * 1024, Seed: 7,
	})
	check(err)
	v2, err := fractal.MutateCorpus(v1, workload.DefaultMutation(8))
	check(err)
	check(app.InstallCorpus(v1, v2))

	// 2. Deploy the four case-study PADs (Table 1) and pre-measure their
	// overhead vectors on the corpus (Equation 1).
	check(app.DeployPADs("1.0"))
	appMeta, err := app.MeasureAppMeta(4)
	check(err)

	// 3. Stand up the adaptation proxy and push the topology to it.
	matrices, err := fractal.CaseStudyMatrices()
	check(err)
	px, err := fractal.NewProxy(fractal.OverheadModel{
		Matrices:          matrices,
		Rho:               netsim.DefaultRho,
		ServerCPUMHz:      netsim.ServerDevice.CPUMHz,
		IncludeServerComp: true,
		SessionRequests:   8,
	}, 256)
	check(err)
	check(px.PushAppMeta(appMeta))

	// 4. Publish the PAD modules through the CDN.
	topo, err := fractal.DefaultCDNTopology(4)
	check(err)
	check(app.PublishPADs(topo.Origin()))

	// 5. A PDA on Bluetooth appears. It trusts the operator's key.
	trust := fractal.NewTrustList()
	entity, key := app.TrustedKey()
	check(trust.Add(entity, key))

	c, err := fractal.NewClient(fractal.ClientConfig{
		Env:             fractal.EnvFor(netsim.PDA),
		SessionRequests: 8,
		Trust:           trust,
		Sandbox:         mobilecode.DefaultSandbox(),
	},
		px, // in-process negotiation
		&client.CDNFetcher{CDN: topo, Region: "region-1", Link: netsim.Bluetooth},
		app,
	)
	check(err)

	// 6. Negotiate: the proxy's path search picks the protocol for this
	// environment; the client downloads + verifies + deploys the PAD.
	pads, err := c.EnsureProtocol("webapp")
	check(err)
	fmt.Printf("negotiated protocol for PDA/Bluetooth: %s (PAD %s, %d-byte module)\n",
		pads[0].Protocol, pads[0].ID, pads[0].Size)

	// 7. Fetch a page, then fetch it again — the second transfer is a
	// differential update thanks to the version cache.
	data, err := c.Request("webapp", "page-000")
	check(err)
	afterFirst := c.Stats().PayloadBytes
	_, err = c.Request("webapp", "page-000")
	check(err)
	st := c.Stats()
	fmt.Printf("first fetch : %6d wire bytes for %d content bytes\n", afterFirst, len(data))
	fmt.Printf("second fetch: %6d wire bytes (differential)\n", st.PayloadBytes-afterFirst)
	fmt.Printf("totals: %d requests, %d negotiation(s), %d PAD download(s)\n",
		st.Requests, st.Negotiations, st.PADDownloads)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
