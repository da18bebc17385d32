package proxy

import (
	"fmt"
	"sync"
	"time"

	"fractal/internal/core"
)

// Authorizer decides whether a principal may use a PAD for an application,
// realizing the access-control integration the paper lists as future work
// (Section 6). The empty principal is an anonymous client.
type Authorizer interface {
	Allow(principal, appID string, pad core.PADMeta) bool
}

// AuthorizerFunc adapts a function to the Authorizer interface.
type AuthorizerFunc func(principal, appID string, pad core.PADMeta) bool

// Allow implements Authorizer.
func (f AuthorizerFunc) Allow(principal, appID string, pad core.PADMeta) bool {
	return f(principal, appID, pad)
}

// PolicyTable is a simple concrete Authorizer: per-principal protocol
// allowlists with a default-allow fallback for unlisted principals. It is
// safe for concurrent use.
type PolicyTable struct {
	mu    sync.RWMutex
	rules map[string]map[string]bool // principal -> allowed protocol set
}

// NewPolicyTable returns an empty table (every principal allowed
// everything until restricted).
func NewPolicyTable() *PolicyTable {
	return &PolicyTable{rules: map[string]map[string]bool{}}
}

// Restrict limits a principal to the listed protocol names.
func (p *PolicyTable) Restrict(principal string, protocols ...string) error {
	if principal == "" {
		return fmt.Errorf("proxy: cannot restrict the anonymous principal")
	}
	set := map[string]bool{}
	for _, proto := range protocols {
		if proto == "" {
			return fmt.Errorf("proxy: empty protocol in policy for %q", principal)
		}
		set[proto] = true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rules[principal] = set
	return nil
}

// Clear removes a principal's restrictions.
func (p *PolicyTable) Clear(principal string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.rules, principal)
}

// Allow implements Authorizer.
func (p *PolicyTable) Allow(principal, appID string, pad core.PADMeta) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	set, restricted := p.rules[principal]
	if !restricted {
		return true
	}
	return set[pad.Protocol]
}

// SetAuthorizer installs (or clears, with nil) the proxy's access-control
// policy. Installing a policy invalidates nothing retroactively: callers
// should install policy before serving, or push AppMeta again to flush the
// adaptation cache.
func (p *Proxy) SetAuthorizer(a Authorizer) {
	p.authzMu.Lock()
	defer p.authzMu.Unlock()
	p.authz = a
}

// authorizer returns the current policy (nil = allow all).
func (p *Proxy) authorizer() Authorizer {
	p.authzMu.RLock()
	defer p.authzMu.RUnlock()
	return p.authz
}

// NegotiateFor is Negotiate with an authenticated principal: the
// adaptation cache is partitioned per principal and the path search only
// considers PADs the policy allows. Concurrent misses for the same cache
// key collapse into one search: one caller becomes the leader and runs the
// search, the rest block on its result and are counted as
// CollapsedSearches. The warm path (cache hit) allocates only the key and
// the defensive result copy; the singleflight closure below is built on
// misses only.
func (p *Proxy) NegotiateFor(principal, appID string, env core.Env, sessionRequests int) ([]core.PADMeta, error) {
	if err := env.Validate(); err != nil {
		return nil, fmt.Errorf("proxy: client metadata: %w", err)
	}
	key := core.CacheKey{AppID: appID, Principal: principal, Dev: env.Dev, Ntwk: env.Ntwk}.String()
	p.negotiations.Add(1)
	if pads, ok := p.cache.GetKeyed(key); ok {
		p.cacheHits.Add(1)
		return pads, nil
	}
	pads, err, joined := p.sf.Do(key, func() ([]core.PADMeta, error) {
		// Double-check under leadership: a previous leader may have filled
		// the cache between our miss and this call, so each unique key runs
		// at most one search no matter how callers interleave. RecheckKeyed
		// keeps the cache's counters at one outcome per negotiation.
		if pads, ok := p.cache.RecheckKeyed(key); ok {
			p.cacheHits.Add(1)
			return pads, nil
		}
		return p.searchAndFill(key, principal, appID, env, sessionRequests)
	})
	if joined {
		p.collapsedSearches.Add(1)
		if err == nil {
			// Followers share the leader's slice; hand each caller its own
			// copy, matching the cache's defensive-copy contract.
			pads = append([]core.PADMeta(nil), pads...)
		}
	}
	return pads, err
}

// searchAndFill runs the authorized path search for a cache miss and
// stores the prepared result under the canonical key.
func (p *Proxy) searchAndFill(key, principal, appID string, env core.Env, sessionRequests int) ([]core.PADMeta, error) {
	authz := p.authorizer()
	var filter func(core.PADMeta) bool
	if authz != nil {
		filter = func(meta core.PADMeta) bool {
			return authz.Allow(principal, appID, meta)
		}
	}
	p.searches.Add(1)
	//fractal:allow simtime — wall-clock metric on the real serving path
	start := time.Now()
	res, err := p.nm.negotiateFiltered(appID, env, sessionRequests, filter)
	p.searchNanos.Add(time.Since(start).Nanoseconds())
	if err != nil {
		return nil, err
	}
	pads := prepareForClient(res.PADs)
	p.cache.PutKeyed(key, pads)
	return pads, nil
}

// negotiateFiltered runs the path search with an optional authorization
// filter.
func (nm *NegotiationManager) negotiateFiltered(appID string, env core.Env, sessionRequests int, allow func(core.PADMeta) bool) (core.PathResult, error) {
	nm.mu.RLock()
	pat, ok := nm.pats[appID]
	model := nm.model
	nm.mu.RUnlock()
	if !ok {
		return core.PathResult{}, fmt.Errorf("proxy: no protocol adaptation topology for app %q", appID)
	}
	if sessionRequests > 0 {
		model.SessionRequests = sessionRequests
	}
	res, err := core.FindPathFiltered(pat, model, env, allow)
	if err != nil {
		return core.PathResult{}, fmt.Errorf("proxy: app %s: %w", appID, err)
	}
	return res, nil
}
