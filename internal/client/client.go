// Package client implements a Fractal client host: it probes its own
// environment metadata, negotiates with the adaptation proxy (keeping the
// paper's client-side protocol cache), retrieves PAD modules from the CDN,
// performs the security checks (digest + code signing) before sandboxed
// deployment, and then runs application sessions using the negotiated
// protocol.
package client

import (
	"errors"
	"fmt"
	"sync"

	"fractal/internal/codec"
	"fractal/internal/core"
	"fractal/internal/inp"
	"fractal/internal/mobilecode"
	"fractal/internal/mobilecode/verify"
	"fractal/internal/syncx"
)

// Negotiator reaches an adaptation proxy. *proxy.Proxy satisfies this for
// in-process wiring; TCPNegotiator implements it over INP.
type Negotiator interface {
	Negotiate(appID string, env core.Env, sessionRequests int) ([]core.PADMeta, error)
}

// PADFetcher retrieves a packed PAD module, normally from the closest CDN
// edgeserver.
type PADFetcher interface {
	FetchPAD(meta core.PADMeta) ([]byte, error)
}

// ContentFetcher performs APP_REQ/APP_REP exchanges with the application
// server.
type ContentFetcher interface {
	FetchContent(req inp.AppReq) (inp.AppRep, error)
}

// Config parameterizes a client host.
type Config struct {
	Env             core.Env
	SessionRequests int
	Trust           *mobilecode.TrustList
	Sandbox         mobilecode.Sandbox
	// FallbackDirect, when set, is a packed Direct-protocol PAD module the
	// client holds locally (shipped with the host). If negotiation or PAD
	// deployment ultimately fails, the client degrades to this module —
	// after the same security checks as any downloaded PAD — instead of
	// failing the session. Nil disables degradation.
	FallbackDirect []byte
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Env.Validate(); err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if c.SessionRequests < 1 {
		return fmt.Errorf("client: session must expect >= 1 request, got %d", c.SessionRequests)
	}
	if c.Trust == nil {
		return fmt.Errorf("client: needs a trust list")
	}
	return c.Sandbox.Validate()
}

// Stats counts client-side activity.
type Stats struct {
	Negotiations       int64
	ProtocolCacheHits  int64
	PADDownloads       int64
	PADDownloadBytes   int64
	Requests           int64
	PayloadBytes       int64
	ContentBytes       int64
	SecurityRejections int64
	// VerifierRejections counts the subset of SecurityRejections where the
	// static bytecode verifier — not the digest or signature check —
	// rejected a module: the code's provenance was fine but its programs
	// could not be proven safe to execute.
	VerifierRejections int64
	// CollapsedNegotiations counts EnsureProtocol callers that joined an
	// in-flight negotiation for the same application instead of opening a
	// duplicate one (cold-start stampede collapse).
	CollapsedNegotiations int64
	// Degradations counts sessions that fell back to the local Direct
	// module after the adaptation plane failed.
	Degradations int64
	// StaleVersionDrops counts replies whose version did not advance the
	// held one and were therefore not committed to the content cache.
	StaleVersionDrops int64
}

// contentEntry is the cached newest version of a resource.
type contentEntry struct {
	version int
	data    []byte
}

// Client is one Fractal client host. Client is safe for concurrent use:
// the protocol cache, deployed PADs, content versions, and stats are all
// guarded by one mutex, so concurrent fetches from multiple goroutines
// are race-free.
type Client struct {
	cfg     Config
	neg     Negotiator
	pads    PADFetcher
	content ContentFetcher
	loader  *mobilecode.Loader

	// negFlight collapses concurrent cold-start negotiations per appID:
	// one leader negotiates and deploys, stampeding callers share its
	// result instead of opening duplicate proxy exchanges.
	negFlight syncx.Group[[]core.PADMeta]

	mu sync.Mutex
	// protocolCache is the paper's client-side protocol cache: PADMeta
	// saved from previous negotiations keyed by application id.
	protocolCache map[string][]core.PADMeta
	deployed      map[string]*mobilecode.DeployedPAD
	versions      map[string]contentEntry
	stats         Stats
}

// New wires a client to its three peers.
func New(cfg Config, neg Negotiator, pads PADFetcher, content ContentFetcher) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if neg == nil || pads == nil || content == nil {
		return nil, fmt.Errorf("client: negotiator, PAD fetcher, and content fetcher are all required")
	}
	loader, err := mobilecode.NewLoader(cfg.Trust, cfg.Sandbox)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	loader.SetVerifier(verify.LoaderVerifier())
	return &Client{
		cfg: cfg, neg: neg, pads: pads, content: content, loader: loader,
		protocolCache: map[string][]core.PADMeta{},
		deployed:      map[string]*mobilecode.DeployedPAD{},
		versions:      map[string]contentEntry{},
	}, nil
}

// EnsureProtocol makes sure the client holds deployed PADs for an
// application: first the local protocol cache, then negotiation, CDN
// download, security checks, and sandbox deployment.
func (c *Client) EnsureProtocol(appID string) ([]core.PADMeta, error) {
	c.mu.Lock()
	cached, hasCached := c.protocolCache[appID]
	c.mu.Unlock()
	if hasCached {
		// Deploy any PADs missing locally (e.g. a cache restored from
		// disk) without renegotiating; only if deployment fails — say the
		// published modules changed — fall through to a fresh negotiation.
		ok := true
		for _, m := range cached {
			if err := c.deployPAD(m); err != nil {
				ok = false
				break
			}
		}
		if ok {
			c.mu.Lock()
			c.stats.ProtocolCacheHits++
			c.mu.Unlock()
			return cached, nil
		}
	}

	// Cold start: collapse concurrent negotiations for the same app into
	// one proxy exchange. The leader runs the full negotiate → download →
	// deploy → cache pipeline (degrading if it fails); joined callers
	// share its outcome.
	pads, err, joined := c.negFlight.Do(appID, func() ([]core.PADMeta, error) {
		return c.negotiateAndDeploy(appID)
	})
	if joined {
		c.mu.Lock()
		c.stats.CollapsedNegotiations++
		c.mu.Unlock()
	}
	return pads, err
}

// negotiateAndDeploy is the cold-start pipeline run by a singleflight
// leader: negotiate with the proxy, deploy every returned PAD, and cache
// the result. If any step ultimately fails (after whatever retries the
// configured Negotiator and PADFetcher perform) it degrades to the local
// Direct fallback module rather than failing the session outright.
func (c *Client) negotiateAndDeploy(appID string) ([]core.PADMeta, error) {
	pads, err := c.neg.Negotiate(appID, c.cfg.Env, c.cfg.SessionRequests)
	if err != nil {
		return c.degrade(appID, fmt.Errorf("client: negotiation: %w", err))
	}
	c.mu.Lock()
	c.stats.Negotiations++
	c.mu.Unlock()
	if len(pads) == 0 {
		return c.degrade(appID, fmt.Errorf("client: proxy returned no PADs for %s", appID))
	}
	for _, meta := range pads {
		if err := c.deployPAD(meta); err != nil {
			return c.degrade(appID, err)
		}
	}
	c.mu.Lock()
	c.protocolCache[appID] = pads
	c.mu.Unlock()
	return pads, nil
}

// degrade falls back to the locally shipped Direct module after the
// adaptation plane failed with cause. The fallback passes the same
// security checks (signature + sandbox limits) as a downloaded PAD; if it
// cannot be deployed, or no fallback is configured, cause is surfaced.
func (c *Client) degrade(appID string, cause error) ([]core.PADMeta, error) {
	if len(c.cfg.FallbackDirect) == 0 {
		return nil, cause
	}
	pad, err := c.loader.Load(c.cfg.FallbackDirect)
	if err != nil {
		c.noteSecurityRejection(err)
		return nil, fmt.Errorf("%w (and fallback module failed security checks: %v)", cause, err)
	}
	meta := core.PADMeta{
		ID:       pad.ID(),
		Version:  pad.Module().Version,
		Protocol: pad.Name(),
		Size:     pad.Module().Size(),
		Digest:   pad.Module().Digest,
	}
	pads := []core.PADMeta{meta}
	c.mu.Lock()
	if _, live := c.deployed[meta.ID]; !live {
		c.deployed[meta.ID] = pad
	}
	c.protocolCache[appID] = pads
	c.stats.Degradations++
	c.mu.Unlock()
	return pads, nil
}

// noteSecurityRejection counts a deploy-pipeline failure. Every failure is
// a security rejection; ones originating in the static bytecode verifier —
// good provenance, unprovable safety — are additionally counted as
// verifier rejections.
func (c *Client) noteSecurityRejection(err error) {
	c.mu.Lock()
	c.stats.SecurityRejections++
	var vErr *verify.Error
	if errors.As(err, &vErr) {
		c.stats.VerifierRejections++
	}
	c.mu.Unlock()
}

// deployPAD downloads, verifies, and deploys one PAD unless it is already
// live.
func (c *Client) deployPAD(meta core.PADMeta) error {
	c.mu.Lock()
	_, live := c.deployed[meta.ID]
	c.mu.Unlock()
	if live {
		return nil
	}
	packed, err := c.pads.FetchPAD(meta)
	if err != nil {
		return fmt.Errorf("client: downloading PAD %s: %w", meta.ID, err)
	}
	pad, err := c.loader.Load(packed)
	if err != nil {
		c.noteSecurityRejection(err)
		return fmt.Errorf("client: PAD %s failed security checks: %w", meta.ID, err)
	}
	// Bind the downloaded module to the negotiated metadata: the digest
	// the proxy advertised must match the module we actually received.
	if !mobilecode.DigestEqual(pad.Module().Digest, meta.Digest) {
		c.mu.Lock()
		c.stats.SecurityRejections++
		c.mu.Unlock()
		return fmt.Errorf("client: PAD %s digest does not match negotiated metadata", meta.ID)
	}
	c.mu.Lock()
	c.deployed[meta.ID] = pad
	c.stats.PADDownloads++
	c.stats.PADDownloadBytes += int64(len(packed))
	c.mu.Unlock()
	return nil
}

// Request fetches a resource through the negotiated protocol, decoding the
// adapted payload with the deployed mobile code and updating the local
// version cache so later requests are differential. The returned slice is
// the held version itself — under pad-direct, the reply frame's own bytes,
// which the decode aliases rather than copies — so callers must not modify
// it.
func (c *Client) Request(appID, resource string) ([]byte, error) {
	pads, err := c.EnsureProtocol(appID)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(pads))
	for i, m := range pads {
		ids[i] = m.ID
	}
	c.mu.Lock()
	have := c.versions[resource]
	c.mu.Unlock()

	rep, err := c.content.FetchContent(inp.AppReq{
		AppID:       appID,
		Resource:    resource,
		ProtocolIDs: ids,
		HaveVersion: have.version,
	})
	if err != nil {
		return nil, fmt.Errorf("client: app request for %s: %w", resource, err)
	}
	c.mu.Lock()
	pad, ok := c.deployed[rep.PADID]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("client: server encoded %s with undeployed PAD %s", resource, rep.PADID)
	}
	data, err := pad.Decode(have.data, rep.Payload)
	if err != nil {
		return nil, fmt.Errorf("client: decoding %s via %s: %w", resource, rep.PADID, err)
	}
	c.mu.Lock()
	// Only commit when the reply advances the held version: a concurrent
	// request may have already cached a newer version, and overwriting it
	// with this (older) one would silently regress the cache — later
	// differential requests would then claim a base version the client no
	// longer holds the newest data for.
	if cur := c.versions[resource]; rep.Version > cur.version {
		c.versions[resource] = contentEntry{version: rep.Version, data: data}
	} else {
		c.stats.StaleVersionDrops++
	}
	c.stats.Requests++
	c.stats.PayloadBytes += int64(len(rep.Payload))
	c.stats.ContentBytes += int64(len(data))
	c.mu.Unlock()
	return data, nil
}

// DecodeCacheStats sums the chunk-index cache counters of every deployed
// PAD. Only a PAD's encode primitives consult that cache; a client that
// only decodes — every Request does — reads all zeros here.
func (c *Client) DecodeCacheStats() codec.ChunkCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total codec.ChunkCacheStats
	for _, pad := range c.deployed {
		st := pad.ChunkCacheStats()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Entries += st.Entries
	}
	return total
}

// HeldVersion reports which version of a resource the client caches.
func (c *Client) HeldVersion(resource string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.versions[resource].version
}

// Forget drops the cached content for a resource (e.g. evicted storage),
// forcing the next request to be a cold start.
func (c *Client) Forget(resource string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.versions, resource)
}

// DropProtocols clears the protocol cache (but not deployed PADs), forcing
// renegotiation — used when the client's environment changes, e.g. the
// roaming scenario.
func (c *Client) DropProtocols() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.protocolCache = map[string][]core.PADMeta{}
}

// SetEnv updates the client's environment metadata (device switch or
// network handoff) and clears the protocol cache so the next request
// renegotiates.
func (c *Client) SetEnv(env core.Env) error {
	if err := env.Validate(); err != nil {
		return fmt.Errorf("client: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg.Env = env
	c.protocolCache = map[string][]core.PADMeta{}
	return nil
}

// Env returns the client's current environment metadata.
func (c *Client) Env() core.Env {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.Env
}

// Stats returns a snapshot of client counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
