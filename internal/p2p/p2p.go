// Package p2p realizes the paper's claim that "it is straightforward to
// support the peer-to-peer model" (Section 3.1): a Peer bundles all three
// Fractal roles — application server for its own content, negotiation
// manager for its own protocol adaptation tree, and client host toward
// other peers. Two peers with different environments negotiate different
// protocols for the two directions of the same relationship, and PAD
// modules travel directly between peers with the same digest/signature
// checks as in the client/server deployment.
package p2p

import (
	"fmt"
	"sync"

	"fractal/internal/appserver"
	"fractal/internal/cdn"
	"fractal/internal/client"
	"fractal/internal/core"
	"fractal/internal/mobilecode"
	"fractal/internal/netsim"
	"fractal/internal/proxy"
	"fractal/internal/workload"
)

// Config parameterizes a peer.
type Config struct {
	Name    string
	Station netsim.Station
	// Corpus versions this peer shares (at least one).
	Versions []*workload.Corpus
	// SessionRequests amortizes PAD downloads in the overhead model.
	SessionRequests int
	// Matrices for the peer's own negotiation manager; nil selects the
	// case-study matrices.
	Matrices *core.Matrices
}

// Peer is one Fractal peer-to-peer endpoint.
type Peer struct {
	name    string
	station netsim.Station
	app     *appserver.Server
	modules *cdn.Origin // this peer's packed PAD modules, by URL
	proxy   *proxy.Proxy
	trust   *mobilecode.TrustList

	sessions int

	mu      sync.Mutex
	clients map[string]*client.Client // per remote peer
}

// NewPeer builds a peer sharing the given content.
func NewPeer(cfg Config) (*Peer, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("p2p: peer needs a name")
	}
	if len(cfg.Versions) == 0 {
		return nil, fmt.Errorf("p2p: peer %s shares no content", cfg.Name)
	}
	if cfg.SessionRequests < 1 {
		cfg.SessionRequests = 1
	}
	signer, err := mobilecode.NewSigner(cfg.Name)
	if err != nil {
		return nil, err
	}
	app, err := appserver.New("peer:"+cfg.Name, signer)
	if err != nil {
		return nil, err
	}
	if err := app.InstallCorpus(cfg.Versions...); err != nil {
		return nil, err
	}
	if err := app.DeployPADs("1.0"); err != nil {
		return nil, err
	}
	modules := cdn.NewOrigin()
	if err := app.PublishPADs(modules); err != nil {
		return nil, err
	}
	appMeta, err := app.MeasureAppMeta(4)
	if err != nil {
		return nil, err
	}
	ms := cfg.Matrices
	if ms == nil {
		m, err := core.CaseStudyMatrices()
		if err != nil {
			return nil, err
		}
		ms = &m
	}
	px, err := proxy.New(core.OverheadModel{
		Matrices:          *ms,
		Rho:               netsim.DefaultRho,
		ServerCPUMHz:      cfg.Station.Device.CPUMHz, // the peer serves on its own CPU
		IncludeServerComp: true,
		SessionRequests:   cfg.SessionRequests,
	}, 128)
	if err != nil {
		return nil, err
	}
	if err := px.PushAppMeta(appMeta); err != nil {
		return nil, err
	}
	return &Peer{
		name:     cfg.Name,
		station:  cfg.Station,
		app:      app,
		modules:  modules,
		proxy:    px,
		trust:    mobilecode.NewTrustList(),
		sessions: cfg.SessionRequests,
		clients:  map[string]*client.Client{},
	}, nil
}

// Name returns the peer's name.
func (p *Peer) Name() string { return p.name }

// AppID returns the peer's shared-content application id.
func (p *Peer) AppID() string { return p.app.AppID() }

// Trust records that this peer trusts code signed by the other peer, the
// peer-to-peer analogue of installing an operator key.
func (p *Peer) Trust(q *Peer) error {
	entity, key := q.app.TrustedKey()
	return p.trust.Add(entity, key)
}

// fetchModule serves one of this peer's PAD modules to another peer.
func (p *Peer) fetchModule(meta core.PADMeta) ([]byte, error) {
	return p.modules.Get(meta.URL)
}

// clientFor lazily builds this peer's client role toward q.
func (p *Peer) clientFor(q *Peer) (*client.Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.clients[q.name]; ok {
		return c, nil
	}
	c, err := client.New(client.Config{
		Env:             envFor(p.station),
		SessionRequests: p.sessions,
		Trust:           p.trust,
		Sandbox:         mobilecode.DefaultSandbox(),
	},
		q.proxy, // negotiate with the remote peer's negotiation manager
		padFetcherFunc(q.fetchModule),
		q.app,
	)
	if err != nil {
		return nil, fmt.Errorf("p2p: %s -> %s: %w", p.name, q.name, err)
	}
	p.clients[q.name] = c
	return c, nil
}

// Fetch retrieves a resource from another peer with full Fractal
// machinery: negotiation against q's PAT, PAD transfer + verification,
// and adapted (differential on repeat) content transfer.
func (p *Peer) Fetch(q *Peer, resource string) ([]byte, error) {
	c, err := p.clientFor(q)
	if err != nil {
		return nil, err
	}
	return c.Request(q.AppID(), resource)
}

// NegotiatedWith reports the PAD metadata p uses toward q (negotiating
// first if needed).
func (p *Peer) NegotiatedWith(q *Peer) ([]core.PADMeta, error) {
	c, err := p.clientFor(q)
	if err != nil {
		return nil, err
	}
	return c.EnsureProtocol(q.AppID())
}

// Stats exposes the client-role counters toward q.
func (p *Peer) Stats(q *Peer) (client.Stats, error) {
	c, err := p.clientFor(q)
	if err != nil {
		return client.Stats{}, err
	}
	return c.Stats(), nil
}

// padFetcherFunc adapts a function to client.PADFetcher.
type padFetcherFunc func(core.PADMeta) ([]byte, error)

// FetchPAD implements client.PADFetcher.
func (f padFetcherFunc) FetchPAD(meta core.PADMeta) ([]byte, error) { return f(meta) }

// envFor converts a station to negotiation metadata (duplicated from the
// experiment package to keep p2p free of the evaluation harness).
func envFor(st netsim.Station) core.Env {
	return core.Env{
		Dev: core.DevMeta{
			OSType:  string(st.Device.OS),
			CPUType: string(st.Device.CPU),
			CPUMHz:  st.Device.CPUMHz,
			MemMB:   st.Device.MemMB,
		},
		Ntwk: core.NtwkMeta{
			NetworkType:   string(st.Link.Type),
			BandwidthKbps: st.Link.BandwidthKbps,
		},
	}
}
