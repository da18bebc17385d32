// Package proxy implements Fractal's adaptation proxy (Section 3.2): a
// negotiation manager that keeps one protocol adaptation tree per
// application and runs the adaptation path search, and a distribution
// manager that caches negotiation results, inserts digest/URL information,
// hides tree links, and handles the network exchange with clients.
package proxy

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"fractal/internal/core"
	"fractal/internal/mobilecode"
	"fractal/internal/mobilecode/verify"
	"fractal/internal/syncx"
)

// Stats are the proxy's negotiation counters. On every successful
// negotiation exactly one of CacheHits, Searches, or CollapsedSearches is
// incremented, so Negotiations = CacheHits + Searches + CollapsedSearches
// when all negotiations succeed.
type Stats struct {
	Negotiations   int64
	CacheHits      int64
	TopologyPushes int64
	// Searches counts cache misses whose caller ran the path search; a
	// search repeated because a push or policy change outdated it counts
	// once.
	Searches int64
	// CollapsedSearches counts negotiations that joined another caller's
	// in-flight search for the same cache key instead of running their own.
	CollapsedSearches int64
	// TotalSearchNanos accumulates time spent in cache-miss searches.
	TotalSearchNanos int64
	// VerifierRejections counts topology pushes refused because the static
	// bytecode verifier rejected a referenced PAD module (only gated pushes
	// — see SetModuleSource — can increment it).
	VerifierRejections int64
}

// Proxy is the negotiation manager and the distribution manager in one.
// The topologies, the access policy, the module source and the adaptation
// cache live under one mutex, mu. A topology push or a policy change
// bumps gen under mu and drops the cache entries it outdates. A search
// snapshots (gen, PAT, authorizer) under mu and runs outside it; it stores
// its result only if gen is unchanged when it finishes, and otherwise
// searches again. So no negotiation that begins after a push or policy
// change has returned is answered from the state it replaced. Counters
// are atomic.
type Proxy struct {
	model core.OverheadModel
	// sf collapses concurrent cache-miss negotiations for the same cache
	// key into one path search (the negotiation-plane singleflight).
	sf syncx.Group[string, flight]

	mu            sync.Mutex
	gen           uint64 // bumped by every topology push and policy change
	pats          map[string]*core.PAT
	cache         *adaptCache
	authz         Authorizer // nil = allow all
	moduleSrc     ModuleSourceFunc
	verifySandbox mobilecode.Sandbox

	negotiations       atomic.Int64
	cacheHits          atomic.Int64
	topologyPushes     atomic.Int64
	searches           atomic.Int64
	collapsedSearches  atomic.Int64
	searchNanos        atomic.Int64
	verifierRejections atomic.Int64
}

// flight is one singleflight outcome: the prepared PADs and the generation
// they were current at when the search finished.
type flight struct {
	pads []core.PADMeta
	gen  uint64
}

// adaptCache is the distribution manager's adaptation cache: one map from
// the canonical CacheKey string to the prepared PADMeta array, bounded by
// entry count with LRU eviction. Proxy.mu guards it. A stored slice is
// never modified, so readers hand out copies.
type adaptCache struct {
	cap       int
	order     *list.List // front = most recent; values are *adaptEntry
	entries   map[string]*list.Element
	evictions int64
}

type adaptEntry struct {
	key, appID string
	pads       []core.PADMeta
}

func newAdaptCache(capacity int) (*adaptCache, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("proxy: adaptation cache capacity must be positive, got %d", capacity)
	}
	return &adaptCache{cap: capacity, order: list.New(), entries: map[string]*list.Element{}}, nil
}

// get returns the cached result for a canonical key and marks it most
// recently used.
func (c *adaptCache) get(key string) ([]core.PADMeta, bool) { return c.touch(c.entries[key]) }

// touch returns the result of an entry looked up in entries, nil for a
// miss, and marks it most recently used. A caller holding the key as bytes
// indexes entries with string(key) itself, which copies nothing.
func (c *adaptCache) touch(el *list.Element) ([]core.PADMeta, bool) {
	if el == nil {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*adaptEntry).pads, true
}

// put stores a search result, which the cache then owns, evicting the
// least recently used entry if the cache is full.
func (c *adaptCache) put(key, appID string, pads []core.PADMeta) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*adaptEntry).pads = pads
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&adaptEntry{key: key, appID: appID, pads: pads})
	if len(c.entries) > c.cap {
		delete(c.entries, c.order.Remove(c.order.Back()).(*adaptEntry).key)
		c.evictions++
	}
}

// invalidate drops every entry for an application and reports how many.
func (c *adaptCache) invalidate(appID string) int {
	n := 0
	for key, el := range c.entries {
		if el.Value.(*adaptEntry).appID == appID {
			c.order.Remove(el)
			delete(c.entries, key)
			n++
		}
	}
	return n
}

// ModuleSourceFunc retrieves the packed module bytes behind a PADMeta —
// typically the CDN origin the application server publishes to. Installed
// with SetModuleSource to gate topology registration on bytecode
// verification.
type ModuleSourceFunc func(meta core.PADMeta) ([]byte, error)

// New builds a proxy with the given overhead model and adaptation-cache
// capacity.
func New(model core.OverheadModel, cacheCapacity int) (*Proxy, error) {
	if err := model.Validate(); err != nil {
		return nil, fmt.Errorf("proxy: %w", err)
	}
	cache, err := newAdaptCache(cacheCapacity)
	if err != nil {
		return nil, err
	}
	return &Proxy{model: model, pats: map[string]*core.PAT{}, cache: cache}, nil
}

// SetModuleSource arms the registration gate: every subsequent PushAppMeta
// fetches each referenced PAD's packed module through fetch, checks it
// against the advertised digest, and runs the static bytecode verifier on
// its programs under sb before any metadata may enter the PAT. A nil fetch
// disarms the gate (metadata-only pushes, the historical behaviour, for
// deployments where the proxy cannot reach the module store).
func (p *Proxy) SetModuleSource(fetch ModuleSourceFunc, sb mobilecode.Sandbox) error {
	if fetch != nil {
		if err := sb.Validate(); err != nil {
			return fmt.Errorf("proxy: module source sandbox: %w", err)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.moduleSrc = fetch
	p.verifySandbox = sb
	return nil
}

// verifyModules is the armed registration gate: malformed modules never
// enter the PAT. The fetches run outside mu.
func (p *Proxy) verifyModules(app core.AppMeta) error {
	p.mu.Lock()
	fetch, sb := p.moduleSrc, p.verifySandbox
	p.mu.Unlock()
	if fetch == nil {
		return nil
	}
	for _, meta := range app.PADs {
		packed, err := fetch(meta)
		if err != nil {
			return fmt.Errorf("proxy: app %s: fetching module for PAD %s: %w", app.AppID, meta.ID, err)
		}
		m, err := mobilecode.Unpack(packed)
		if err != nil {
			return fmt.Errorf("proxy: app %s: PAD %s: %w", app.AppID, meta.ID, err)
		}
		if !mobilecode.DigestEqual(m.Digest, meta.Digest) {
			return fmt.Errorf("proxy: app %s: PAD %s module digest does not match advertised metadata", app.AppID, meta.ID)
		}
		if _, err := verify.Module(m, sb); err != nil {
			p.verifierRejections.Add(1)
			return fmt.Errorf("proxy: app %s: rejecting topology: %w", app.AppID, err)
		}
	}
	return nil
}

// PushAppMeta installs or replaces an application's protocol adaptation
// topology, as the application server does "when the protocol adaptation
// topology is first created or changed later", and drops the
// application's cached negotiations. With a module source installed
// (SetModuleSource), every referenced PAD module is fetched and statically
// verified first.
func (p *Proxy) PushAppMeta(app core.AppMeta) error {
	if err := p.verifyModules(app); err != nil {
		return err
	}
	pat, err := core.BuildPAT(app)
	if err != nil {
		return fmt.Errorf("proxy: rejecting AppMeta: %w", err)
	}
	p.mu.Lock()
	p.pats[app.AppID] = pat
	p.cache.invalidate(app.AppID)
	p.gen++
	p.mu.Unlock()
	p.topologyPushes.Add(1)
	return nil
}

// Negotiate is the full proxy-side negotiation for an anonymous client:
// consult the adaptation cache, run the path search on a miss, then
// prepare client-facing metadata (redacted links, URL filled). This is the
// in-process entry point; ServeConn wraps it with the INP exchange.
// Authenticated clients use NegotiateFor.
func (p *Proxy) Negotiate(appID string, env core.Env, sessionRequests int) ([]core.PADMeta, error) {
	return p.NegotiateFor("", appID, env, sessionRequests)
}

// prepareForClient is the distribution manager's post-processing: hide
// parent/child links and ensure each PAD has a download URL.
func prepareForClient(pads []core.PADMeta) []core.PADMeta {
	out := make([]core.PADMeta, 0, len(pads))
	for _, p := range pads {
		q := p.Redacted()
		if q.URL == "" {
			q.URL = "/pads/" + q.ID
		}
		out = append(out, q)
	}
	return out
}

// Stats returns a snapshot of the proxy counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Negotiations:       p.negotiations.Load(),
		CacheHits:          p.cacheHits.Load(),
		TopologyPushes:     p.topologyPushes.Load(),
		Searches:           p.searches.Load(),
		CollapsedSearches:  p.collapsedSearches.Load(),
		TotalSearchNanos:   p.searchNanos.Load(),
		VerifierRejections: p.verifierRejections.Load(),
	}
}

// CacheStats reports the adaptation cache's counters. Every negotiation
// is one lookup: a hit when the cache answered it (Stats.CacheHits) and a
// miss otherwise, so Hits + Misses = Negotiations by construction.
func (p *Proxy) CacheStats() core.CacheStats {
	p.mu.Lock()
	evictions := p.cache.evictions
	p.mu.Unlock()
	// Hits first: a negotiation is counted before its hit, so Misses
	// never reads negative.
	hits := p.cacheHits.Load()
	return core.CacheStats{Hits: hits, Misses: p.negotiations.Load() - hits, Evictions: evictions}
}
