package conformance

import (
	"fmt"
	"time"

	"fractal/internal/appserver"
	"fractal/internal/cdn"
	"fractal/internal/core"
	"fractal/internal/mobilecode"
	"fractal/internal/proxy"
	"fractal/internal/workload"
)

// The fixed vocabulary the trace selectors index. Index 0 is the valid
// choice; the spec's semantic predicates are written against these names,
// and NewWorld verifies the built world actually matches them.
const (
	validApp      = "webapp"
	unknownApp    = "ghost"
	pushApp       = "pushapp"
	validResource = "page-000"
	badResource   = "page-404"
	validPAD      = "pad-gzip"
	badPAD        = "pad-ghost"
)

// worldPages is how many corpus pages the app server installs; resources
// are named page-000 .. page-00(worldPages-1).
const worldPages = 4

func appIDFor(sel int) string {
	switch sel {
	case 1:
		return unknownApp
	case 2:
		return ""
	}
	return validApp
}

func resourceFor(sel int) string {
	if sel != 0 {
		return badResource
	}
	return validResource
}

func protoFor(sel int) string {
	if sel != 0 {
		return "pad-bogus"
	}
	return validPAD
}

func padFor(sel int) string {
	if sel != 0 {
		return badPAD
	}
	return validPAD
}

func envFor(sel int) core.Env {
	if sel != 0 {
		return core.Env{
			Dev:  core.DevMeta{OSType: core.OSWinCE, CPUType: core.CPUTypePXA255, CPUMHz: 400, MemMB: 64},
			Ntwk: core.NtwkMeta{NetworkType: core.NetBluetooth, BandwidthKbps: 723},
		}
	}
	return core.Env{
		Dev:  core.DevMeta{OSType: core.OSFedora, CPUType: core.CPUTypeP4, CPUMHz: 2000, MemMB: 512},
		Ntwk: core.NtwkMeta{NetworkType: core.NetLAN, BandwidthKbps: 100000},
	}
}

// worldMeta is the case-study one-level PAT (Figure 8) under the given
// application id, with distinguishable per-PAD costs so different
// environments negotiate different PADs.
func worldMeta(appID string) core.AppMeta {
	pad := func(id, proto string, clientStd time.Duration, traffic int64) core.PADMeta {
		return core.PADMeta{
			ID: id, Protocol: proto, Size: 4096,
			Overhead: core.PADOverhead{ClientCompStd: clientStd, TrafficBytes: traffic},
		}
	}
	return core.AppMeta{
		AppID: appID,
		PADs: []core.PADMeta{
			pad("pad-direct", "direct", 0, 140000),
			pad("pad-gzip", "gzip", 40*time.Millisecond, 50000),
			pad("pad-bitmap", "bitmap", 85*time.Millisecond, 30000),
		},
	}
}

// pushMetaFor returns the AppMeta an OpMetaPush step carries: a valid
// topology under a second application id, or (bad) one that fails
// validation so the proxy must answer Ack{OK:false} and drop the conn.
func pushMetaFor(bad bool) core.AppMeta {
	if bad {
		return core.AppMeta{AppID: ""} // fails AppMeta.Validate
	}
	return worldMeta(pushApp)
}

// World is the set of server-side fixtures a conformance run talks to:
// one adaptation proxy, one application server, and one PAD origin, all
// built deterministically except for the module signing key — which is
// why both stacks must share a single World, so the PAD module bytes they
// serve are identical.
type World struct {
	Proxy *proxy.Server
	App   *appserver.INPServer
	PAD   *cdn.PADServer

	proxyCore *proxy.Proxy
	appCore   *appserver.Server
	origin    *cdn.Origin
}

// quietf discards server session logs; mutated traces make servers
// complain by design.
func quietf(string, ...interface{}) {}

// NewWorld builds the shared fixture set and sanity-checks that it
// matches the vocabulary the spec's predicates assume.
func NewWorld() (*World, error) {
	ms, err := core.CaseStudyMatrices()
	if err != nil {
		return nil, err
	}
	model := core.OverheadModel{
		Matrices:          ms,
		Rho:               0.8,
		ServerCPUMHz:      2000,
		IncludeServerComp: true,
		SessionRequests:   75,
	}
	proxyCore, err := proxy.New(model, 128)
	if err != nil {
		return nil, err
	}
	if err := proxyCore.PushAppMeta(worldMeta(validApp)); err != nil {
		return nil, err
	}

	signer, err := mobilecode.NewSigner("conformance-app-server")
	if err != nil {
		return nil, err
	}
	appCore, err := appserver.New(validApp, signer)
	if err != nil {
		return nil, err
	}
	v1, err := workload.Generate(workload.Config{
		Pages: worldPages, TextBytes: 2048, Images: 2, ImageBytes: 16384, Seed: 100,
	})
	if err != nil {
		return nil, err
	}
	v2, err := workload.MutateCorpus(v1, workload.DefaultMutation(101))
	if err != nil {
		return nil, err
	}
	if err := appCore.InstallCorpus(v1, v2); err != nil {
		return nil, err
	}
	if err := appCore.DeployPADs("1.0"); err != nil {
		return nil, err
	}

	origin := cdn.NewOrigin()
	if err := appCore.PublishPADs(origin); err != nil {
		return nil, err
	}

	w := &World{proxyCore: proxyCore, appCore: appCore, origin: origin}
	if w.Proxy, err = proxy.NewServer(proxyCore, 64, quietf); err != nil {
		return nil, err
	}
	if w.App, err = appserver.NewINPServer(appCore, 64, quietf); err != nil {
		return nil, err
	}
	if w.PAD, err = cdn.NewPADServer(origin, 64, quietf); err != nil {
		return nil, err
	}
	return w, w.check()
}

// check verifies the built world satisfies the spec vocabulary: the model
// hardcodes these predicates instead of calling into the servers, so a
// fixture drift must fail loudly here rather than as a phantom
// conformance divergence.
func (w *World) check() error {
	deployed := false
	for _, id := range w.appCore.PADIDs() {
		if id == validPAD {
			deployed = true
		}
		if id == badPAD {
			return fmt.Errorf("conformance: %q unexpectedly deployed", badPAD)
		}
	}
	if !deployed {
		return fmt.Errorf("conformance: %q not among deployed PADs %v", validPAD, w.appCore.PADIDs())
	}
	if n := w.appCore.Resources(); n != worldPages {
		return fmt.Errorf("conformance: app server has %d resources, want %d", n, worldPages)
	}
	if _, v, err := w.appCore.Current(validResource); err != nil || v != 2 {
		return fmt.Errorf("conformance: %s at version %d (%v), the spec assumes 2", validResource, v, err)
	}
	if _, err := w.origin.Get("/pads/" + validPAD); err != nil {
		return fmt.Errorf("conformance: origin missing %s: %w", validPAD, err)
	}
	if _, err := w.origin.Get("/pads/" + badPAD); err == nil {
		return fmt.Errorf("conformance: origin unexpectedly has %s", badPAD)
	}
	return nil
}
