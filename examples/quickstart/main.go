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

	"fractal/internal/cdn"
	"fractal/internal/client"
	"fractal/internal/deploy"
	"fractal/internal/experiment"
	"fractal/internal/mobilecode"
	"fractal/internal/netsim"
)

func main() {
	// 1. The operator builds its server: a two-version corpus, the four signed
	// case-study PADs (Table 1), their overheads measured on it (Equation 1).
	app, err := deploy.NewApp("webapp", 8, 7, 2, false)
	check(err)

	// 2. Publish the PAD modules through the CDN.
	topo, err := cdn.DefaultTopology(4)
	check(err)
	check(app.PublishPADs(topo.Origin()))

	// 3. Stand up the adaptation proxy, gated on the CDN origin: it verifies
	// every module a pushed topology names before registering it.
	px, err := deploy.NewProxy(false, topo.Origin().Get)
	check(err)
	check(px.PushAppMeta(app.Meta))

	// 4. A PDA on Bluetooth appears. It trusts the operator's key.
	c, err := client.New(client.Config{
		Env:             experiment.EnvFor(netsim.PDA),
		SessionRequests: deploy.SessionRequests,
		Trust:           app.Trust,
		Sandbox:         mobilecode.DefaultSandbox(),
	},
		px, // in-process negotiation
		&client.CDNFetcher{CDN: topo, Region: "region-1", Link: netsim.Bluetooth},
		app.Server,
	)
	check(err)

	// 5. Negotiate: the proxy's path search picks the protocol for this
	// environment; the client downloads + verifies + deploys the PAD.
	pads, err := c.EnsureProtocol("webapp")
	check(err)
	fmt.Printf("negotiated protocol for PDA/Bluetooth: %s (PAD %s, %d-byte module)\n",
		pads[0].Protocol, pads[0].ID, pads[0].Size)

	// 6. Fetch a page, then fetch it again — the second transfer is a
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
