package core

import (
	"container/list"
	"fmt"
	"strings"
	"sync"
)

// CacheKey identifies one negotiation outcome: the paper's adaptation
// cache maps { DevMeta, Application ID, NtwkMeta } to the PADMeta array
// the client needs. Principal extends the key for the access-control
// extension — two clients with identical environments but different
// authorization must not share results.
type CacheKey struct {
	AppID     string
	Principal string
	Dev       DevMeta
	Ntwk      NtwkMeta
}

// String renders the canonical key ("app=%s|who=%s|%s|%s" over the Dev and
// Ntwk fragments), built in a single buffer so the negotiation hot path
// pays one allocation for the whole key.
func (k CacheKey) String() string {
	b := make([]byte, 0, 128)
	b = append(b, "app="...)
	b = append(b, k.AppID...)
	b = append(b, "|who="...)
	b = append(b, k.Principal...)
	b = append(b, '|')
	b = k.Dev.appendKey(b)
	b = append(b, '|')
	b = k.Ntwk.appendKey(b)
	return string(b)
}

// appIDOfKey recovers the application id from a canonical key string, the
// inverse of the "app=<id>|" prefix String writes. Used to maintain the
// per-application invalidation index without carrying the CacheKey around.
func appIDOfKey(key string) string {
	rest, ok := strings.CutPrefix(key, "app=")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '|'); i >= 0 {
		return rest[:i]
	}
	return rest
}

// CacheStats counts adaptation-cache behaviour.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// AdaptationCache is the distribution manager's negotiation-result cache,
// bounded by entry count with LRU eviction. It is safe for concurrent use.
//
// Internally the cache is split into a power-of-two number of shards, each
// with its own lock, LRU list, and counters, so concurrent sessions do not
// serialize on one mutex. Small caches (where per-shard capacity would
// drop below shardMinCap) use a single shard and therefore keep exact
// global LRU semantics; large caches trade global recency ordering for
// per-shard ordering, the standard sharded-LRU design.
type AdaptationCache struct {
	shards []*cacheShard
	mask   uint32
}

// Sharding bounds: at most maxShards shards, and only when every shard
// keeps at least shardMinCap entries.
const (
	maxShards   = 16
	shardMinCap = 64
)

// cacheShard is one lock domain of the adaptation cache.
type cacheShard struct {
	mu      sync.Mutex
	cap     int
	order   *list.List // front = most recent; values are *adaptEntry
	entries map[string]*list.Element
	// byApp indexes live entries by application id so a topology push
	// invalidates in O(entries-for-app) instead of scanning the LRU.
	byApp map[string]map[string]*list.Element
	stats CacheStats
}

type adaptEntry struct {
	key   string
	appID string
	pads  []PADMeta
}

// NewAdaptationCache builds a cache holding at most capacity entries in
// total across all shards.
func NewAdaptationCache(capacity int) (*AdaptationCache, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("core: adaptation cache capacity must be positive, got %d", capacity)
	}
	shards := 1
	for shards < maxShards && capacity/(shards*2) >= shardMinCap {
		shards *= 2
	}
	c := &AdaptationCache{shards: make([]*cacheShard, shards), mask: uint32(shards - 1)}
	base, rem := capacity/shards, capacity%shards
	for i := range c.shards {
		sc := base
		if i < rem {
			sc++
		}
		c.shards[i] = &cacheShard{
			cap:     sc,
			order:   list.New(),
			entries: map[string]*list.Element{},
			byApp:   map[string]map[string]*list.Element{},
		}
	}
	return c, nil
}

// shard maps a canonical key string to its lock domain (FNV-1a).
func (c *AdaptationCache) shard(key string) *cacheShard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return c.shards[h&c.mask]
}

// Shards reports the number of lock domains (always a power of two).
func (c *AdaptationCache) Shards() int { return len(c.shards) }

// Get returns the cached negotiation result for a client configuration.
func (c *AdaptationCache) Get(k CacheKey) ([]PADMeta, bool) {
	return c.GetKeyed(k.String())
}

// GetKeyed is Get for a caller that already rendered k.String(), so the
// hot path builds the canonical key exactly once per negotiation.
//
//fractal:hotpath every negotiation hits the cache before searching
func (c *AdaptationCache) GetKeyed(key string) ([]PADMeta, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	return s.hitLocked(el), true
}

// hitLocked counts a hit on el, marks it most recently used, and returns
// the caller's defensive copy. The shard lock must be held.
func (s *cacheShard) hitLocked(el *list.Element) []PADMeta {
	s.stats.Hits++
	s.order.MoveToFront(el)
	return append([]PADMeta(nil), el.Value.(*adaptEntry).pads...)
}

// RecheckKeyed is the second look of a lookup whose GetKeyed already
// missed (the singleflight leader's double-check): a miss counts nothing
// further and a hit turns that counted miss into a hit, so Hits + Misses
// stays one outcome per lookup rather than one per probe.
func (c *AdaptationCache) RecheckKeyed(key string) ([]PADMeta, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	s.stats.Misses--
	return s.hitLocked(el), true
}

// Put stores a negotiation result, evicting the least recently used entry
// of the key's shard if that shard is full.
func (c *AdaptationCache) Put(k CacheKey, pads []PADMeta) {
	c.PutKeyed(k.String(), pads)
}

// PutKeyed is Put for a caller that already rendered k.String(); key must
// be the canonical CacheKey.String() form.
//
//fractal:hotpath every cache miss stores its search result here
func (c *AdaptationCache) PutKeyed(key string, pads []PADMeta) {
	cp := append([]PADMeta(nil), pads...)
	appID := appIDOfKey(key)
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		el.Value.(*adaptEntry).pads = cp
		s.order.MoveToFront(el)
		return
	}
	el := s.order.PushFront(&adaptEntry{key: key, appID: appID, pads: cp})
	s.entries[key] = el
	keys := s.byApp[appID]
	if keys == nil {
		keys = map[string]*list.Element{}
		s.byApp[appID] = keys
	}
	keys[key] = el
	for len(s.entries) > s.cap {
		back := s.order.Back()
		if back == nil {
			break
		}
		s.removeLocked(back)
		s.stats.Evictions++
	}
}

// removeLocked unlinks an element from the LRU order, the key map, and the
// per-app index. The shard lock must be held.
func (s *cacheShard) removeLocked(el *list.Element) {
	ent := el.Value.(*adaptEntry)
	s.order.Remove(el)
	delete(s.entries, ent.key)
	if keys := s.byApp[ent.appID]; keys != nil {
		delete(keys, ent.key)
		if len(keys) == 0 {
			delete(s.byApp, ent.appID)
		}
	}
}

// Invalidate drops every entry for an application, used when the server
// pushes a new AppMeta (topology change). The per-app index makes this
// proportional to the application's entries, not the cache size.
func (c *AdaptationCache) Invalidate(appID string) int {
	dropped := 0
	for _, s := range c.shards {
		s.mu.Lock()
		for _, el := range s.byApp[appID] {
			ent := el.Value.(*adaptEntry)
			s.order.Remove(el)
			delete(s.entries, ent.key)
			dropped++
		}
		delete(s.byApp, appID)
		s.mu.Unlock()
	}
	return dropped
}

// Len returns the number of cached configurations.
func (c *AdaptationCache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Stats returns the hit/miss/eviction counters aggregated across shards.
func (c *AdaptationCache) Stats() CacheStats {
	var st CacheStats
	for _, s := range c.shards {
		s.mu.Lock()
		st.Hits += s.stats.Hits
		st.Misses += s.stats.Misses
		st.Evictions += s.stats.Evictions
		s.mu.Unlock()
	}
	return st
}
