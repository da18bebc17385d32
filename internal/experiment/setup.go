// Package experiment regenerates every table and figure of the paper's
// evaluation (Section 4.4) against the simulated substrate. Each
// experiment returns a typed result whose Rows/String render the same
// series the paper plots; tests in this package assert the qualitative
// shapes the paper reports (who wins where, which curves stay flat, where
// the Bitmap→Vary flip happens).
package experiment

import (
	"fmt"

	"fractal/internal/appserver"
	"fractal/internal/cdn"
	"fractal/internal/core"
	"fractal/internal/deploy"
	"fractal/internal/mobilecode"
	"fractal/internal/netsim"
	"fractal/internal/proxy"
	"fractal/internal/workload"
)

// SetupConfig parameterizes the experimental platform of Figure 7.
type SetupConfig struct {
	Pages int   // corpus size (75 in the paper)
	Seed  int64 // workload determinism
	Edges int   // CDN edgeservers standing in for PlanetLab nodes
}

// DefaultSetupConfig matches the paper's platform.
func DefaultSetupConfig() SetupConfig {
	return SetupConfig{
		Pages: workload.DefaultPages,
		Seed:  2005, // IPPS 2005
		Edges: 10,
	}
}

// Setup is a fully wired Fractal deployment on the simulated platform.
type Setup struct {
	App     *appserver.Server
	Proxy   *proxy.Proxy
	CDN     *cdn.CDN
	AppMeta core.AppMeta
	Trust   *mobilecode.TrustList
	V1, V2  *workload.Corpus
	Model   core.OverheadModel
}

// NewSetup builds the experimental platform through internal/deploy: the
// application server, the CDN with its modules published, and the proxy,
// gated on the CDN origin, with the topology pushed.
func NewSetup(cfg SetupConfig) (*Setup, error) {
	app, err := deploy.NewApp("webapp", cfg.Pages, cfg.Seed, 2, false)
	if err != nil {
		return nil, err
	}
	topo, err := cdn.DefaultTopology(cfg.Edges)
	if err != nil {
		return nil, err
	}
	if err := app.PublishPADs(topo.Origin()); err != nil {
		return nil, err
	}
	px, err := deploy.NewProxy(topo.Origin().Get)
	if err != nil {
		return nil, err
	}
	if err := px.PushAppMeta(app.Meta); err != nil {
		return nil, err
	}
	model, err := deploy.Model()
	if err != nil {
		return nil, err
	}
	return &Setup{
		App: app.Server, Proxy: px, CDN: topo, AppMeta: app.Meta,
		Trust: app.Trust, V1: app.Versions[0], V2: app.Versions[1], Model: model,
	}, nil
}

// EnvFor converts a simulator station into negotiation metadata, the
// client-side "probing the system using system calls".
func EnvFor(st netsim.Station) core.Env {
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

// PADByProtocol finds the measured PADMeta for a protocol name.
func (s *Setup) PADByProtocol(proto string) (core.PADMeta, error) {
	for _, p := range s.AppMeta.PADs {
		if p.Protocol == proto {
			return p, nil
		}
	}
	return core.PADMeta{}, fmt.Errorf("experiment: no PAD for protocol %q", proto)
}
