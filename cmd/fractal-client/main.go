// Command fractal-client runs a Fractal client host against a live
// deployment: it negotiates with the adaptation proxy, downloads and
// verifies the negotiated PAD from a PAD server, and fetches resources
// from the application server with the adapted protocol.
//
// Every dial and every read or write is bounded, and a failed negotiation
// or PAD download is retried on a fresh connection, so a stalled or dead
// peer ends the run with an error instead of hanging it. If the -trust
// file's directory also holds pad-direct.fmc (fractal-server -publish
// writes both), the client degrades to that Direct module when the
// adaptation plane stays down.
//
// Usage:
//
//	fractal-client -proxy localhost:7001 -server localhost:7002 \
//	    -pads localhost:7003 -trust ./pads/trust.key \
//	    -device pda -resource page-000 -n 3
package main

import (
	"crypto/ed25519"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fractal/internal/client"
	"fractal/internal/core"
	"fractal/internal/experiment"
	"fractal/internal/mobilecode"
	"fractal/internal/netsim"
)

// I/O bounds of every transport: a stalled peer costs at most dialTimeout
// to reach and callTimeout per read or write of each attempt.
const (
	dialTimeout = 5 * time.Second
	callTimeout = 5 * time.Second
)

func main() {
	var (
		proxyAddr  = flag.String("proxy", "localhost:7001", "adaptation proxy address")
		serverAddr = flag.String("server", "localhost:7002", "application server address")
		padsAddr   = flag.String("pads", "localhost:7003", "PAD server address")
		trustFile  = flag.String("trust", "", "trust key file written by fractal-server (-publish)")
		device     = flag.String("device", "desktop", "client profile: desktop|laptop|pda|auto (auto probes this host)")
		netType    = flag.String("net", "LAN", "network type reported when -device auto")
		netKbps    = flag.Float64("bw", 100000, "network bandwidth (kbps) reported when -device auto")
		protoCache = flag.String("protocache", "", "protocol cache file to load/save (skips negotiation across runs)")
		appID      = flag.String("app", "webapp", "application id")
		resource   = flag.String("resource", "page-000", "resource to fetch")
		n          = flag.Int("n", 1, "number of requests (later ones are differential)")
		session    = flag.Int("session", 75, "expected requests per session (amortizes PAD download)")
		clientID   = flag.String("id", "", "principal identity for proxy access control (optional)")
	)
	flag.Parse()

	var env core.Env
	var err error
	if strings.EqualFold(*device, "auto") {
		env, err = client.ProbeEnv(*netType, *netKbps)
		if err == nil {
			log.Printf("fractal-client: probed %s/%s %.0fMHz %dMB on %s",
				env.Dev.OSType, env.Dev.CPUType, env.Dev.CPUMHz, env.Dev.MemMB, env.Ntwk.NetworkType)
		}
	} else {
		env, err = envFor(*device)
	}
	if err != nil {
		log.Fatalf("fractal-client: %v", err)
	}
	trust, err := loadTrust(*trustFile)
	if err != nil {
		log.Fatalf("fractal-client: %v", err)
	}
	fallback, err := loadFallback(*trustFile)
	if err != nil {
		log.Fatalf("fractal-client: %v", err)
	}
	sessionConn, err := client.DialAppSession(*serverAddr,
		client.SessionConfig{DialTimeout: dialTimeout, CallTimeout: callTimeout})
	if err != nil {
		log.Fatalf("fractal-client: %v", err)
	}
	defer sessionConn.Close()

	c, err := client.New(client.Config{
		Env:             env,
		SessionRequests: *session,
		Trust:           trust,
		Sandbox:         mobilecode.DefaultSandbox(),
		FallbackDirect:  fallback,
	},
		&client.TCPNegotiator{Addr: *proxyAddr, ClientID: *clientID, DialTimeout: dialTimeout, CallTimeout: callTimeout},
		&client.TCPPADFetcher{Addr: *padsAddr, DialTimeout: dialTimeout, CallTimeout: callTimeout},
		sessionConn,
	)
	if err != nil {
		log.Fatalf("fractal-client: %v", err)
	}

	if *protoCache != "" {
		if n, err := c.LoadProtocolCache(*protoCache); err == nil && n > 0 {
			log.Printf("fractal-client: restored protocol cache for %d app(s)", n)
		}
	}
	pads, err := c.EnsureProtocol(*appID)
	if err != nil {
		log.Fatalf("fractal-client: %v", err)
	}
	if *protoCache != "" {
		if err := c.SaveProtocolCache(*protoCache); err != nil {
			log.Printf("fractal-client: saving protocol cache: %v", err)
		}
	}
	names := make([]string, len(pads))
	for i, p := range pads {
		names[i] = fmt.Sprintf("%s(%s)", p.ID, p.Protocol)
	}
	log.Printf("fractal-client: negotiated protocol path: %s", strings.Join(names, " -> "))

	for i := 0; i < *n; i++ {
		data, err := c.Request(*appID, *resource)
		if err != nil {
			log.Fatalf("fractal-client: request %d: %v", i+1, err)
		}
		st := c.Stats()
		log.Printf("fractal-client: request %d: %s v%d, %d content bytes (cumulative wire %d, PAD download %d)",
			i+1, *resource, c.HeldVersion(*resource), len(data), st.PayloadBytes, st.PADDownloadBytes)
	}
	st := c.Stats()
	fmt.Printf("requests=%d negotiations=%d pad_downloads=%d degradations=%d wire_bytes=%d content_bytes=%d\n",
		st.Requests, st.Negotiations, st.PADDownloads, st.Degradations, st.PayloadBytes, st.ContentBytes)
}

// loadFallback reads the Direct module published beside the trust file,
// or returns nil when there is none.
func loadFallback(trustPath string) ([]byte, error) {
	module, err := os.ReadFile(filepath.Join(filepath.Dir(trustPath), "pad-direct.fmc"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return module, err
}

func envFor(device string) (core.Env, error) {
	switch strings.ToLower(device) {
	case "desktop":
		return experiment.EnvFor(netsim.Desktop), nil
	case "laptop":
		return experiment.EnvFor(netsim.Laptop), nil
	case "pda":
		return experiment.EnvFor(netsim.PDA), nil
	default:
		return core.Env{}, fmt.Errorf("unknown device %q (want desktop|laptop|pda)", device)
	}
}

// loadTrust reads the "<entity>\n<hex pubkey>\n" file written by
// fractal-server -publish.
func loadTrust(path string) (*mobilecode.TrustList, error) {
	if path == "" {
		return nil, fmt.Errorf("a -trust file is required (written by fractal-server -publish)")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		return nil, fmt.Errorf("trust file %s: want 2 lines (entity, hex key), got %d", path, len(lines))
	}
	key, err := hex.DecodeString(strings.TrimSpace(lines[1]))
	if err != nil {
		return nil, fmt.Errorf("trust file %s: bad key: %w", path, err)
	}
	trust := mobilecode.NewTrustList()
	if err := trust.Add(strings.TrimSpace(lines[0]), ed25519.PublicKey(key)); err != nil {
		return nil, err
	}
	return trust, nil
}
