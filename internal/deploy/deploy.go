// Package deploy assembles the platform of Figure 7 — adaptation proxy,
// application server, PAD servers — for the daemons, the experiment
// platform and the examples: the Eq. 3 model and the gated proxy, the
// application server and its measured AppMeta, the publish directory
// (pads.go) and the listen/drain scaffolding (serve.go).
package deploy

import (
	"errors"
	"fmt"

	"fractal/internal/appserver"
	"fractal/internal/core"
	"fractal/internal/mobilecode"
	"fractal/internal/netsim"
	"fractal/internal/proxy"
	"fractal/internal/workload"
)

const (
	// signerEntity is the application operator's code-signing identity.
	// Its length enters every module's size, and through Module.Size the
	// download term of Eq. 3, so every deployment signs under this one name.
	signerEntity = "app-operator"
	// SessionRequests is the paper's session length; it amortizes the PAD
	// download term of Eq. 3.
	SessionRequests = 75
	// cacheCapacity is the proxy's adaptation-cache size in entries.
	cacheCapacity = 4096
	// samplePages is how many pages pre-measure each PAD's overhead vector.
	samplePages = 8
)

// Model is the Eq. 3 overhead model the proxy searches with; server-side
// computing counts unless the server precomputes its content (proactive).
func Model(proactive bool) (core.OverheadModel, error) {
	ms, err := core.CaseStudyMatrices()
	if err != nil {
		return core.OverheadModel{}, err
	}
	return core.OverheadModel{
		Matrices:          ms,
		Rho:               netsim.DefaultRho,
		ServerCPUMHz:      netsim.ServerDevice.CPUMHz,
		IncludeServerComp: !proactive,
		SessionRequests:   SessionRequests,
	}, nil
}

// NewProxy builds the adaptation proxy over Model(proactive) with its
// registration gate armed: every pushed PAD's packed module is looked up
// by its URL through modules, checked against the advertised digest and
// bytecode-verified before the topology may enter the PAT.
func NewProxy(proactive bool, modules func(url string) ([]byte, error)) (*proxy.Proxy, error) {
	if modules == nil {
		return nil, errors.New("deploy: the proxy needs a module source for its registration gate")
	}
	model, err := Model(proactive)
	if err != nil {
		return nil, err
	}
	px, err := proxy.New(model, cacheCapacity)
	if err != nil {
		return nil, err
	}
	fetch := func(m core.PADMeta) ([]byte, error) { return modules(m.URL) }
	if err := px.SetModuleSource(fetch, mobilecode.DefaultSandbox()); err != nil {
		return nil, err
	}
	return px, nil
}

// App is a built application server with what its deployment hands on.
type App struct {
	*appserver.Server
	// Meta is the measured topology the server pushes to the proxy.
	Meta core.AppMeta
	// Trust lists the operator's signing key, as a client trusts it.
	Trust *mobilecode.TrustList
	// Versions are the newest two installed corpus versions (one when only
	// one was installed), oldest first: the two the server holds. Older
	// versions are not kept, so a daemon holding its App does not hold
	// every corpus it generated.
	Versions []*workload.Corpus
}

// NewApp builds the application server for appID: a pages-page corpus
// from seed evolved into a chain of versions (the server keeps the
// newest two), the four case-study PADs signed as signerEntity, the
// content strategy, and the AppMeta measured over the first sample pages.
func NewApp(appID string, pages int, seed int64, versions int, proactive bool) (*App, error) {
	if pages < 1 || versions < 1 {
		return nil, fmt.Errorf("deploy: need >= 1 page and >= 1 content version, got %d and %d", pages, versions)
	}
	signer, err := mobilecode.NewSigner(signerEntity)
	if err != nil {
		return nil, err
	}
	srv, err := appserver.New(appID, signer)
	if err != nil {
		return nil, err
	}
	cfg := workload.DefaultConfig(seed)
	cfg.Pages = pages
	corpus, err := workload.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("deploy: generating corpus: %w", err)
	}
	if err := srv.InstallCorpus(corpus); err != nil {
		return nil, err
	}
	held := []*workload.Corpus{corpus}
	for v := 1; v < versions; v++ {
		next, err := workload.MutateCorpus(corpus, workload.DefaultMutation(seed+int64(v)))
		if err != nil {
			return nil, fmt.Errorf("deploy: evolving corpus: %w", err)
		}
		if err := srv.InstallCorpus(next); err != nil {
			return nil, err
		}
		held, corpus = []*workload.Corpus{corpus, next}, next
	}
	if err := srv.DeployPADs("1.0"); err != nil {
		return nil, err
	}
	if proactive {
		if err := srv.SetStrategy(appserver.Proactive); err != nil {
			return nil, err
		}
	}
	meta, err := srv.MeasureAppMeta(samplePages)
	if err != nil {
		return nil, err
	}
	trust, err := trustList(srv.TrustedKey())
	if err != nil {
		return nil, err
	}
	return &App{Server: srv, Meta: meta, Trust: trust, Versions: held}, nil
}

func trustList(entity string, key []byte) (*mobilecode.TrustList, error) {
	trust := mobilecode.NewTrustList()
	if err := trust.Add(entity, key); err != nil {
		return nil, err
	}
	return trust, nil
}
