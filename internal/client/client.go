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

	"fractal/internal/arena"
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
	// StaleVersionDrops counts replies older than the held version, which
	// are therefore not committed to the content cache. A reply at the
	// held version (a re-request of an unchanged resource) is not a drop.
	StaleVersionDrops int64
}

// contentEntry is the cached newest version of a resource; what decoding
// derives from it — its vary-block split, the gzip stream it was inflated
// from — lives on held and goes with the entry.
type contentEntry struct {
	version int
	held    *codec.Held
}

// protocol is a cached negotiation result: the PADs, and their IDs built
// once for every APP_REQ. Neither slice is written once cached. degraded
// marks the local Direct fallback, which stands in for a negotiation that
// failed and so is never persisted.
type protocol struct {
	pads     []core.PADMeta
	ids      []string
	degraded bool
}

func newProtocol(pads []core.PADMeta) protocol {
	ids := make([]string, len(pads))
	for i, m := range pads {
		ids[i] = m.ID
	}
	return protocol{pads: pads, ids: ids}
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

	// negFlight collapses concurrent cold-start negotiations per appID and
	// environment generation: one leader negotiates and deploys, and
	// stampeding callers under the same environment share its result.
	negFlight syncx.Group[flightKey, protocol]

	mu sync.Mutex
	// envGen counts SetEnv calls: a negotiation caches its protocol only
	// if no SetEnv ran since it began.
	envGen uint64
	// protocolCache is the paper's client-side protocol cache: PADMeta
	// saved from previous negotiations keyed by application id.
	protocolCache map[string]protocol
	deployed      map[string]*mobilecode.DeployedPAD
	versions      map[string]contentEntry
	stats         Stats
}

// flightKey keys a cold-start negotiation by application and the
// environment generation it runs under.
type flightKey struct {
	appID string
	gen   uint64
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
		protocolCache: map[string]protocol{},
		deployed:      map[string]*mobilecode.DeployedPAD{},
		versions:      map[string]contentEntry{},
	}, nil
}

// EnsureProtocol makes sure the client holds deployed PADs for an
// application: first the local protocol cache, then negotiation, CDN
// download, security checks, and sandbox deployment.
func (c *Client) EnsureProtocol(appID string) ([]core.PADMeta, error) {
	p, err := c.ensure(appID)
	return p.pads, err
}

// ensure is EnsureProtocol returning the cached protocol.
func (c *Client) ensure(appID string) (protocol, error) {
	c.mu.Lock()
	cached, hasCached := c.protocolCache[appID]
	env, gen := c.cfg.Env, c.envGen
	c.mu.Unlock()
	if hasCached {
		// Deploy any PADs missing locally (e.g. a cache restored from
		// disk) without renegotiating; only if deployment fails — say the
		// published modules changed — fall through to a fresh negotiation.
		ok := true
		for _, m := range cached.pads {
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
	p, err, joined := c.negFlight.Do(flightKey{appID, gen}, func() (protocol, error) {
		return c.negotiateAndDeploy(appID, env, gen)
	})
	if joined {
		c.mu.Lock()
		c.stats.CollapsedNegotiations++
		c.mu.Unlock()
	}
	return p, err
}

// negotiateAndDeploy is the cold-start pipeline run by a singleflight
// leader: negotiate with the proxy under env, deploy every returned PAD,
// and cache the result unless SetEnv has moved the client past gen. If any
// step ultimately fails (after whatever retries the configured Negotiator
// and PADFetcher perform) it degrades to the local Direct fallback module
// rather than failing the session outright.
func (c *Client) negotiateAndDeploy(appID string, env core.Env, gen uint64) (protocol, error) {
	pads, err := c.neg.Negotiate(appID, env, c.cfg.SessionRequests)
	if err != nil {
		return c.degrade(appID, gen, fmt.Errorf("client: negotiation: %w", err))
	}
	c.mu.Lock()
	c.stats.Negotiations++
	c.mu.Unlock()
	if len(pads) == 0 {
		return c.degrade(appID, gen, fmt.Errorf("client: proxy returned no PADs for %s", appID))
	}
	for _, meta := range pads {
		if err := c.deployPAD(meta); err != nil {
			return c.degrade(appID, gen, err)
		}
	}
	p := newProtocol(pads)
	c.mu.Lock()
	if c.envGen == gen {
		c.protocolCache[appID] = p
	}
	c.mu.Unlock()
	return p, nil
}

// degrade falls back to the locally shipped Direct module after the
// adaptation plane failed with cause. The fallback passes the same
// security checks (signature + sandbox limits) as a downloaded PAD; if it
// cannot be deployed, or no fallback is configured, cause is surfaced. Like
// negotiateAndDeploy, it caches only while the client is still at gen.
func (c *Client) degrade(appID string, gen uint64, cause error) (protocol, error) {
	if len(c.cfg.FallbackDirect) == 0 {
		return protocol{}, cause
	}
	pad, err := c.loader.Load(c.cfg.FallbackDirect)
	if err != nil {
		c.noteSecurityRejection(err)
		return protocol{}, fmt.Errorf("%w (and fallback module failed security checks: %v)", cause, err)
	}
	meta := core.PADMeta{
		ID:       pad.ID(),
		Version:  pad.Module().Version,
		Protocol: pad.Name(),
		Size:     pad.Module().Size(),
		Digest:   pad.Module().Digest,
	}
	p := newProtocol([]core.PADMeta{meta})
	p.degraded = true
	c.mu.Lock()
	if _, live := c.deployed[meta.ID]; !live {
		c.deployed[meta.ID] = pad
	}
	if c.envGen == gen {
		c.protocolCache[appID] = p
	}
	c.stats.Degradations++
	c.mu.Unlock()
	return p, nil
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
// version cache so later requests are differential. A reply that advances
// the held version commits the Held the decode returned; a reply that
// re-delivers the held version — a payload that decodes to its bytes, or
// the gzip stream it was inflated from — returns the held version itself
// and keeps nothing of the reply. Either way the returned slice is a held
// version, and later decodes against it reuse chunk boundaries split from
// those bytes, so callers must not modify it.
//
// Over a TCPAppSession the reply body lands in arena storage the request
// borrows and hands back before it returns, so only what outlives the
// request is copied out, at its exact size: a payload that becomes the
// held version (pad-direct's own bytes), and the gzip stream a new Held
// records. Concurrent requests each borrow their own. Any other
// ContentFetcher's reply owns its bytes, which the held version may alias.
func (c *Client) Request(appID, resource string) ([]byte, error) {
	proto, err := c.ensure(appID)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	have := c.versions[resource]
	c.mu.Unlock()

	var buf arena.Buffer
	defer buf.Release()
	req := inp.AppReq{
		AppID:       appID,
		Resource:    resource,
		ProtocolIDs: proto.ids,
		HaveVersion: have.version,
	}
	var rep inp.AppRep
	if s, ok := c.content.(*TCPAppSession); ok {
		rep, err = s.fetch(req, &buf)
	} else {
		rep, err = c.content.FetchContent(req)
	}
	if err != nil {
		return nil, fmt.Errorf("client: app request for %s: %w", resource, err)
	}
	c.mu.Lock()
	pad, ok := c.deployed[rep.PADID]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("client: server encoded %s with undeployed PAD %s", resource, rep.PADID)
	}
	// The payload names the version it was encoded against: the one held
	// here, or none when the server no longer holds ours. Any other base
	// would decode into garbage, so it is refused before decoding.
	var base *codec.Held
	switch rep.Base {
	case have.version:
		base = have.held
	case 0:
	default:
		return nil, fmt.Errorf("client: server encoded %s against version %d, client holds %d", resource, rep.Base, have.version)
	}
	data, held, err := pad.DecodeHeld(base, rep.Payload)
	if err != nil {
		return nil, fmt.Errorf("client: decoding %s via %s: %w", resource, rep.PADID, err)
	}
	if held == nil {
		held = &codec.Held{Data: data}
	}
	if held != base {
		held.Detach(&buf)
		data = held.Data
	}
	c.mu.Lock()
	// Only commit when the reply advances the held version: a concurrent
	// request may have already cached a newer version, and overwriting it
	// with this (older) one would silently regress the cache — later
	// differential requests would then claim a base version the client no
	// longer holds the newest data for.
	if cur := c.versions[resource]; rep.Version > cur.version {
		c.versions[resource] = contentEntry{version: rep.Version, held: held}
	} else if rep.Version < cur.version {
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

// SetEnv updates the client's environment metadata (device switch or
// network handoff) and clears the protocol cache so the next request
// renegotiates. A negotiation still in flight under the old environment
// completes for its callers but caches nothing.
func (c *Client) SetEnv(env core.Env) error {
	if err := env.Validate(); err != nil {
		return fmt.Errorf("client: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg.Env = env
	c.envGen++
	c.protocolCache = map[string]protocol{}
	return nil
}

// Stats returns a snapshot of client counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
