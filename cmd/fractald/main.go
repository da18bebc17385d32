// Command fractald runs a Fractal adaptation proxy: it accepts AppMeta
// pushes from application servers and serves Interactive Negotiation
// Protocol sessions from clients.
//
// Usage:
//
//	fractald -listen :7001 -dir ./pads
//
// cmd/fractal-server publishes its PAD modules to -dir and pushes its
// topology here; clients negotiate against the same address. A push is
// refused unless every PAD it names is in -dir, matches its digest and
// passes the bytecode verifier. The content strategy needs no flag here:
// a proactive server's topology reports no server-side computing.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"fractal/internal/deploy"
	"fractal/internal/proxy"
)

func main() {
	var (
		listen = flag.String("listen", ":7001", "INP listen address")
		dir    = flag.String("dir", "./pads", "publish directory of the PAD modules pushed topologies name (fractal-server -publish)")
		policy = flag.String("policy", "", "access-control policy file: one 'principal: proto1,proto2' line per restricted principal")
	)
	flag.Parse()

	px, err := deploy.NewProxy(deploy.DirModules(*dir))
	if err != nil {
		log.Fatalf("fractald: %v", err)
	}
	if *policy != "" {
		pt, n, err := loadPolicy(*policy)
		if err != nil {
			log.Fatalf("fractald: %v", err)
		}
		px.SetAuthorizer(pt)
		log.Printf("fractald: loaded access policy for %d principal(s)", n)
	}
	ep, err := deploy.Serve(*listen, proxy.NewServer, px, log.Printf)
	if err != nil {
		log.Fatalf("fractald: %v", err)
	}
	err = ep.Run(func() { log.Printf("fractald: adaptation proxy listening on %s (modules from %s)", ep.Addr(), *dir) })
	st := px.Stats()
	log.Printf("fractald: shut down (negotiations %d, cache hits %d, topology pushes %d, verifier rejections %d)",
		st.Negotiations, st.CacheHits, st.TopologyPushes, st.VerifierRejections)
	if err != nil {
		log.Fatalf("fractald: %v", err)
	}
}

// loadPolicy parses "principal: proto1,proto2" lines ('#' comments and
// blank lines ignored) into a policy table; it returns the number of
// restricted principals.
func loadPolicy(path string) (*proxy.PolicyTable, int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	rules := map[string][]string{}
	for lineNo, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		principal, protos, ok := strings.Cut(line, ":")
		if !ok {
			return nil, 0, fmt.Errorf("policy %s line %d: want 'principal: protocols'", path, lineNo+1)
		}
		var list []string
		for _, p := range strings.Split(protos, ",") {
			if p = strings.TrimSpace(p); p != "" {
				list = append(list, p)
			}
		}
		rules[strings.TrimSpace(principal)] = list
	}
	pt, err := proxy.NewPolicyTable(rules)
	if err != nil {
		return nil, 0, fmt.Errorf("policy %s: %w", path, err)
	}
	return pt, len(rules), nil
}
