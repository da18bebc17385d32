package proxy

import (
	"fmt"
	"slices"
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
// policy. It drops every cached negotiation and outdates every search in
// flight, so each negotiation that begins after it returns is decided
// under the new policy. Edits to an installed PolicyTable (Restrict,
// Clear) reach the searches that follow but not the cached results: they
// take effect for every client when the table is installed again.
func (p *Proxy) SetAuthorizer(a Authorizer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.authz = a
	clear(p.cache.entries)
	p.cache.order.Init()
	p.gen++
}

// NegotiateFor is Negotiate with an authenticated principal: the
// adaptation cache is partitioned per principal and the path search only
// considers PADs the policy allows. The cache is partitioned per session
// length too (a non-positive sessionRequests means the model's), because
// the search amortizes the PAD download over it. Concurrent misses for the
// same cache key collapse into one search: one caller becomes the leader
// and runs the search, the rest block on its result and are counted as
// CollapsedSearches. A caller that joined a search answered for a state
// older than the one it began under asks again. The warm path (cache hit)
// allocates only the caller's copy of the result: the key is built on the
// stack, and it becomes a string, as the singleflight closure below is
// built, on misses only.
func (p *Proxy) NegotiateFor(principal, appID string, env core.Env, sessionRequests int) ([]core.PADMeta, error) {
	if err := env.Validate(); err != nil {
		return nil, fmt.Errorf("proxy: client metadata: %w", err)
	}
	if sessionRequests <= 0 {
		sessionRequests = p.model.SessionRequests
	}
	var buf [128]byte
	kb := core.CacheKey{AppID: appID, Principal: principal, Dev: env.Dev, Ntwk: env.Ntwk, SessionRequests: sessionRequests}.Append(buf[:0])
	p.negotiations.Add(1)
	for {
		p.mu.Lock()
		pads, hit := p.cache.touch(p.cache.entries[string(kb)])
		gen := p.gen
		p.mu.Unlock()
		if hit {
			p.cacheHits.Add(1)
			return slices.Clone(pads), nil
		}
		key := string(kb)
		f, err, joined := p.sf.Do(key, func() (flight, error) {
			return p.search(key, principal, appID, env, sessionRequests)
		})
		if !joined || f.gen >= gen {
			if joined {
				p.collapsedSearches.Add(1)
			}
			return slices.Clone(f.pads), err
		}
	}
}

// search is the singleflight leader's work for one cache key. It looks
// again first: an earlier leader may have filled the key since this
// caller missed, so each key runs at most one search however callers
// interleave. Otherwise it searches under the generation rule (see Proxy).
func (p *Proxy) search(key, principal, appID string, env core.Env, sessionRequests int) (flight, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pads, ok := p.cache.get(key); ok {
		p.cacheHits.Add(1)
		return flight{pads, p.gen}, nil
	}
	p.searches.Add(1)
	for {
		gen, pat, authz := p.gen, p.pats[appID], p.authz
		p.mu.Unlock()
		pads, err := p.findPath(pat, authz, principal, appID, env, sessionRequests)
		p.mu.Lock()
		if p.gen == gen {
			if err == nil {
				p.cache.put(key, appID, pads)
			}
			return flight{pads, gen}, err
		}
	}
}

// findPath runs the authorized adaptation path search on one snapshot of
// the state and prepares its result for the client.
func (p *Proxy) findPath(pat *core.PAT, authz Authorizer, principal, appID string, env core.Env, sessionRequests int) ([]core.PADMeta, error) {
	if pat == nil {
		return nil, fmt.Errorf("proxy: no protocol adaptation topology for app %q", appID)
	}
	var allow func(core.PADMeta) bool
	if authz != nil {
		allow = func(meta core.PADMeta) bool {
			return authz.Allow(principal, appID, meta)
		}
	}
	model := p.model
	model.SessionRequests = sessionRequests
	//fractal:allow simtime — wall-clock metric on the real serving path
	start := time.Now()
	res, err := core.FindPathFiltered(pat, model, env, allow)
	p.searchNanos.Add(time.Since(start).Nanoseconds())
	if err != nil {
		return nil, fmt.Errorf("proxy: app %s: %w", appID, err)
	}
	return prepareForClient(res.PADs), nil
}
