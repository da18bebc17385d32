// Package cdn is Fractal's content-distribution-network substrate. The
// paper deploys PADs on PlanetLab nodes acting as CDN edgeservers and
// compares against a single centralized PAD server (Figure 9(b)); this
// package reproduces both: an origin holding every published object,
// edgeservers with byte-bounded LRU caches that pull from the origin on
// miss, a region-based redirector choosing the closest edge, and the
// netsim bandwidth-sharing model for retrieval-time accounting.
package cdn

import (
	"container/list"
	"fmt"
	"sync"
)

// lruCache is a byte-capacity-bounded LRU of immutable blobs. It is safe
// for concurrent use.
type lruCache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	order    *list.List // front = most recent; values are *cacheEntry
	entries  map[string]*list.Element
}

type cacheEntry struct {
	key  string
	data []byte
}

// newLRUCache builds a cache holding at most capacity bytes of values.
func newLRUCache(capacity int64) (*lruCache, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("cdn: cache capacity must be positive, got %d", capacity)
	}
	return &lruCache{
		capacity: capacity,
		order:    list.New(),
		entries:  map[string]*list.Element{},
	}, nil
}

// Get returns the cached blob and marks it most recently used.
func (c *lruCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).data, true
}

// Put inserts a blob, evicting least-recently-used entries as needed. A
// blob larger than the whole cache is not cached (and no eviction occurs).
func (c *lruCache) Put(key string, data []byte) {
	if int64(len(data)) > c.capacity {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		old := el.Value.(*cacheEntry)
		c.used += int64(len(data)) - int64(len(old.data))
		old.data = data
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&cacheEntry{key: key, data: data})
		c.used += int64(len(data))
	}
	for c.used > c.capacity {
		back := c.order.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.entries, ent.key)
		c.used -= int64(len(ent.data))
	}
}
