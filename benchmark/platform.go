package main

import (
	"fmt"
	"net"
	"sync"

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

const (
	appID = "webapp"
	// sessionRequests is the paper's session length; it amortizes the PAD
	// download term of Equation 3 on both ends of the negotiation.
	sessionRequests = 75
	// cacheCapacity is the proxy's adaptation-cache size, the paper
	// platform's default. negotiate-persistent sizes its key pool against it.
	cacheCapacity = 1024
	samplePages   = 8
	// corpusSeed fixes the content every run serves (the seed of
	// experiment.DefaultSetupConfig). The PAD overhead vectors are measured
	// on the corpus, so a corpus that changed with -seed would change which
	// protocol a station negotiates: of seeds 100..109, two moved the Desktop
	// from direct to gzip and its first-contact latency from 1 ms to 6.5 ms.
	// -seed drives what is done with the content, not the content.
	corpusSeed = 2005
)

// platform is one Fractal deployment: the three daemons' backends wired as
// experiment.NewSetup wires them, plus what the benchmark needs to check
// outputs (the PAT oracle, the structured corpus).
type platform struct {
	app     *appserver.Server
	px      *proxy.Proxy
	origin  *cdn.Origin
	appMeta core.AppMeta
	trust   *mobilecode.TrustList
	model   core.OverheadModel
	// pat is the benchmark's own compiled topology: core.FindPath on it is
	// the oracle every negotiated protocol is checked against.
	pat *core.PAT
	// prev and latest are the two newest structured versions of every page;
	// updates mutate latest, replay encodes prev -> latest.
	prev, latest []*workload.Page
}

// buildPlatform follows experiment.NewSetup step for step; proactive
// selects the Figure 10(d)/11(c) variant: precomputed adaptive content at
// the server and a proxy model that ignores server computing, under which
// the PDA negotiates varyblock instead of bitmap.
func buildPlatform(pages int, proactive bool) (*platform, error) {
	signer, err := mobilecode.NewSigner("app-operator")
	if err != nil {
		return nil, err
	}
	app, err := appserver.New(appID, signer)
	if err != nil {
		return nil, err
	}
	wcfg := workload.DefaultConfig(corpusSeed)
	wcfg.Pages = pages
	v1, err := workload.Generate(wcfg)
	if err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	v2, err := workload.MutateCorpus(v1, workload.DefaultMutation(corpusSeed+1))
	if err != nil {
		return nil, fmt.Errorf("evolving corpus: %w", err)
	}
	if err := app.InstallCorpus(v1, v2); err != nil {
		return nil, err
	}
	if err := app.DeployPADs("1.0"); err != nil {
		return nil, err
	}
	appMeta, err := app.MeasureAppMeta(samplePages)
	if err != nil {
		return nil, err
	}
	ms, err := core.CaseStudyMatrices()
	if err != nil {
		return nil, err
	}
	model := core.OverheadModel{
		Matrices:          ms,
		Rho:               netsim.DefaultRho,
		ServerCPUMHz:      netsim.ServerDevice.CPUMHz,
		IncludeServerComp: !proactive,
		SessionRequests:   sessionRequests,
	}
	px, err := proxy.New(model, cacheCapacity)
	if err != nil {
		return nil, err
	}
	topo, err := cdn.DefaultTopology(1)
	if err != nil {
		return nil, err
	}
	origin := topo.Origin()
	if err := app.PublishPADs(origin); err != nil {
		return nil, err
	}
	fetch := func(m core.PADMeta) ([]byte, error) { return origin.Get(m.URL) }
	if err := px.SetModuleSource(fetch, mobilecode.DefaultSandbox()); err != nil {
		return nil, err
	}
	if err := px.PushAppMeta(appMeta); err != nil {
		return nil, err
	}
	if proactive {
		if err := app.SetStrategy(appserver.Proactive); err != nil {
			return nil, err
		}
	}
	trust := mobilecode.NewTrustList()
	entity, key := app.TrustedKey()
	if err := trust.Add(entity, key); err != nil {
		return nil, err
	}
	pat, err := core.BuildPAT(appMeta)
	if err != nil {
		return nil, err
	}
	return &platform{
		app: app, px: px, origin: origin, appMeta: appMeta, trust: trust,
		model: model, pat: pat, prev: v1.Pages, latest: v2.Pages,
	}, nil
}

// expected is the oracle: the protocol the pure path search picks for env.
func (p *platform) expected(env core.Env) (string, error) {
	res, err := core.FindPath(p.pat, p.model, env)
	if err != nil {
		return "", err
	}
	return res.PADs[len(res.PADs)-1].Protocol, nil
}

func (p *platform) clientConfig(env core.Env) client.Config {
	return client.Config{
		Env:             env,
		SessionRequests: sessionRequests,
		Trust:           p.trust,
		Sandbox:         mobilecode.DefaultSandbox(),
	}
}

// stationEnvs are the paper's three client configurations in evaluation
// order: Desktop-LAN, Laptop-WLAN, PDA-Bluetooth.
func stationEnvs() []core.Env {
	sts := netsim.Stations()
	envs := make([]core.Env, len(sts))
	for i, st := range sts {
		envs[i] = experiment.EnvFor(st)
	}
	return envs
}

// endpoints is one set of loopback listeners in front of a platform's
// backends. The measured pass uses a bare set, so accepted connections are
// *net.TCPConn and the servers keep their vectored writes; the traced pass
// starts a second set whose listeners count bytes and time service.
type endpoints struct {
	proxyAddr, edgeAddr, appAddr string
	// taps are nil on a bare set.
	proxyTap, edgeTap, appTap *tap

	closers []func() error
	served  sync.WaitGroup
}

func (p *platform) serve(traced bool) (*endpoints, error) {
	// Clients close with SO_LINGER 0, so every daemon logs a reset at each
	// session end; failures are counted where they matter, at the client.
	logf := func(string, ...interface{}) {}
	ps, err := proxy.NewServer(p.px, 64, logf)
	if err != nil {
		return nil, err
	}
	es, err := cdn.NewPADServer(p.origin, 64, logf)
	if err != nil {
		return nil, err
	}
	as, err := appserver.NewINPServer(p.app, 64, logf)
	if err != nil {
		return nil, err
	}
	ep := &endpoints{}
	for _, dm := range []struct {
		addr  *string
		tap   **tap
		serve func(net.Listener) error
		close func() error
	}{
		{&ep.proxyAddr, &ep.proxyTap, ps.Serve, ps.Close},
		{&ep.edgeAddr, &ep.edgeTap, es.Serve, es.Close},
		{&ep.appAddr, &ep.appTap, as.Serve, as.Close},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ep.close()
			return nil, err
		}
		*dm.addr = ln.Addr().String()
		if traced {
			*dm.tap = &tap{}
			ln = &tapListener{Listener: ln, tap: *dm.tap}
		}
		ep.closers = append(ep.closers, func() error {
			err := dm.close()
			// A daemon closed before its accept loop registered the listener
			// never closes it itself; closing twice is harmless.
			ln.Close()
			return err
		})
		ep.served.Add(1)
		go func() {
			defer ep.served.Done()
			_ = dm.serve(ln) // an accept failure surfaces as refused dials, which ops count
		}()
	}
	return ep, nil
}

// close stops the three daemons and waits for their accept loops (each
// waits for its in-flight sessions) to return.
func (ep *endpoints) close() {
	for _, c := range ep.closers {
		_ = c() // listener close; the accept loop reports anything that matters
	}
	ep.served.Wait()
}
