// Command fractal-edge runs a PAD server: it loads packed PAD modules
// from a directory (published by cmd/fractal-server) and serves
// PAD_DOWNLOAD_REQ over INP. Run one instance as the centralized PAD
// server baseline, or several as CDN edgeservers.
//
// Usage:
//
//	fractal-edge -listen :7003 -dir ./pads
package main

import (
	"flag"
	"log"

	"fractal/internal/cdn"
	"fractal/internal/deploy"
)

func main() {
	var (
		listen = flag.String("listen", ":7003", "INP listen address")
		dir    = flag.String("dir", "./pads", "directory of packed PAD modules (*.fmc)")
	)
	flag.Parse()

	store, err := deploy.LoadModules(*dir)
	if err != nil {
		log.Fatalf("fractal-edge: %v", err)
	}
	ep, err := deploy.Serve(*listen, cdn.NewPADServer, store, log.Printf)
	if err != nil {
		log.Fatalf("fractal-edge: %v", err)
	}
	if err := ep.Run(func() { log.Printf("fractal-edge: serving %d PAD modules on %s", len(store.Paths()), ep.Addr()) }); err != nil {
		log.Fatalf("fractal-edge: %v", err)
	}
}
