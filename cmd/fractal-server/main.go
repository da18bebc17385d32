// Command fractal-server runs a Fractal application server: it generates
// (or evolves) the versioned content corpus, deploys and signs the four
// case-study PADs, publishes the packed modules plus the trust key to a
// directory for PAD servers (cmd/fractal-edge) and the adaptation proxy's
// registration gate, pushes its AppMeta to the proxy, and serves
// application sessions over INP.
//
// Usage:
//
//	fractal-server -listen :7002 -proxy localhost:7001 -publish ./pads
package main

import (
	"flag"
	"log"

	"fractal/internal/appserver"
	"fractal/internal/deploy"
	"fractal/internal/workload"
)

func main() {
	var (
		listen    = flag.String("listen", ":7002", "INP listen address")
		proxyAddr = flag.String("proxy", "", "adaptation proxy address to push AppMeta to (optional)")
		publish   = flag.String("publish", "./pads", "directory to write packed PAD modules + trust key; the proxy's -dir and the edge's -dir read it")
		appID     = flag.String("app", "webapp", "application id")
		pages     = flag.Int("pages", workload.DefaultPages, "corpus size")
		seed      = flag.Int64("seed", 2005, "workload seed")
		versions  = flag.Int("versions", 2, "content versions to generate and install in order (>= 1); the server keeps the newest two")
		proactive = flag.Bool("proactive", false, "precompute adaptive content (Figure 10(d) strategy); the pushed topology carries it to the proxy")
	)
	flag.Parse()

	app, err := deploy.NewApp(*appID, *pages, *seed, *versions, *proactive)
	if err != nil {
		log.Fatalf("fractal-server: %v", err)
	}
	log.Printf("fractal-server: %d resources, %d PADs measured", app.Resources(), len(app.Meta.PADs))
	// Publish before pushing: the proxy's gate reads the modules the push names.
	if err := deploy.Publish(app.Server, *publish); err != nil {
		log.Fatalf("fractal-server: %v", err)
	}
	log.Printf("fractal-server: published PAD modules + trust key to %s", *publish)
	if *proxyAddr != "" {
		if err := appserver.PushAppMetaTCP(*proxyAddr, app.Meta); err != nil {
			log.Fatalf("fractal-server: %v", err)
		}
		log.Printf("fractal-server: pushed AppMeta to proxy %s", *proxyAddr)
	}

	ep, err := deploy.Serve(*listen, appserver.NewINPServer, app.Server, log.Printf)
	if err != nil {
		log.Fatalf("fractal-server: %v", err)
	}
	err = ep.Run(func() {
		log.Printf("fractal-server: application server %q listening on %s (%s strategy)", *appID, ep.Addr(), app.Strategy())
	})
	st := app.Stats()
	log.Printf("fractal-server: shut down (requests %d, reactive %d, precomputed %d, cold fallbacks %d)",
		st.Requests, st.ReactiveEncod, st.PrecomputeHits, st.ColdFallbacks)
	if err != nil {
		log.Fatalf("fractal-server: %v", err)
	}
}
