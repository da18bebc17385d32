package codec

import (
	"container/list"
	"crypto/sha1"
	"sync"

	"fractal/internal/rabin"
)

// ChunkIndex is the preprocessed identity of one content version under one
// chunker configuration: its chunk list, the SHA-1 of every chunk, and a
// digest → first-occurrence index. Building it is the dominant cost of a
// vary-sized blocking encode (the Figure 10/11 observation), and it
// depends only on the bytes and the configuration — never on the request —
// so VaryBlock.Encode may share one per version through a ChunkCache. A
// ChunkIndex is immutable after construction and safe for concurrent use.
type ChunkIndex struct {
	Chunks []rabin.Chunk
	Sums   [][sha1.Size]byte
	first  map[[sha1.Size]byte]int // digest -> lowest chunk index
}

// Lookup returns the first chunk whose content has the given digest.
func (ix *ChunkIndex) Lookup(sum [sha1.Size]byte) (int, bool) {
	i, ok := ix.first[sum]
	return i, ok
}

// buildChunkIndex chunks data and digests every chunk, keeping the first
// occurrence of each digest — the same tie-break the wire format has
// always used, so cached and stateless encodes emit identical ref indices.
func buildChunkIndex(ch *rabin.Chunker, data []byte) *ChunkIndex {
	chunks := ch.Split(data)
	sums := make([][sha1.Size]byte, len(chunks))
	first := make(map[[sha1.Size]byte]int, len(chunks))
	for i, c := range chunks {
		sums[i] = sha1.Sum(data[c.Offset : c.Offset+c.Length])
		if _, dup := first[sums[i]]; !dup {
			first[sums[i]] = i
		}
	}
	return &ChunkIndex{Chunks: chunks, Sums: sums, first: first}
}

// cacheKey addresses one ChunkIndex: a descriptor string of the chunker
// parameters plus the SHA-1 of the content bytes. Content addressing means
// a version re-installed under another resource name still hits; it also
// means every lookup, hit or miss, digests the whole version.
type cacheKey struct {
	conf string
	sum  [sha1.Size]byte
}

// ChunkCacheStats is a snapshot of cache effectiveness counters.
type ChunkCacheStats struct {
	Hits    int64
	Misses  int64
	Entries int
}

// ChunkCache is a bounded LRU of ChunkIndex values shared across VaryBlock
// codecs and requests. It is safe for concurrent use. A cache miss builds
// outside the lock, so a burst of first requests for the same version may
// build the index more than once; every build of the same key produces an
// identical index, so whichever insert lands last is indistinguishable.
type ChunkCache struct {
	mu      sync.Mutex
	cap     int
	order   list.List // front = most recent; values are *cacheEntry
	entries map[cacheKey]*list.Element
	hits    int64
	misses  int64
}

type cacheEntry struct {
	key cacheKey
	ix  *ChunkIndex
}

// DefaultChunkCacheEntries is the capacity used when NewChunkCache is
// given a non-positive value.
const DefaultChunkCacheEntries = 128

// NewChunkCache returns an LRU chunk-index cache holding up to capacity
// entries (DefaultChunkCacheEntries if capacity <= 0).
func NewChunkCache(capacity int) *ChunkCache {
	if capacity <= 0 {
		capacity = DefaultChunkCacheEntries
	}
	c := &ChunkCache{cap: capacity, entries: make(map[cacheKey]*list.Element)}
	c.order.Init()
	return c
}

// getOrBuild returns the index of data under chunker ch (described by
// conf), building and inserting it on a miss.
func (c *ChunkCache) getOrBuild(conf string, ch *rabin.Chunker, data []byte) *ChunkIndex {
	key := cacheKey{conf: conf, sum: sha1.Sum(data)}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		ix := el.Value.(*cacheEntry).ix
		c.mu.Unlock()
		return ix
	}
	c.misses++
	c.mu.Unlock()

	ix := buildChunkIndex(ch, data)

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		// A concurrent builder won the race; keep its entry.
		c.order.MoveToFront(el)
		ix = el.Value.(*cacheEntry).ix
	} else {
		c.entries[key] = c.order.PushFront(&cacheEntry{key: key, ix: ix})
		for c.order.Len() > c.cap {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(*cacheEntry).key)
		}
	}
	c.mu.Unlock()
	return ix
}

// Stats returns a snapshot of hit/miss counters and the current entry
// count. A nil cache has seen nothing.
func (c *ChunkCache) Stats() ChunkCacheStats {
	if c == nil {
		return ChunkCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return ChunkCacheStats{Hits: c.hits, Misses: c.misses, Entries: c.order.Len()}
}

// ChunkCacheUser is implemented by codecs whose Encode can share a
// ChunkCache — VaryBlock is the only one; callers attach a cache through a
// type assertion that simply does not fire for the rest. Passing nil
// returns the codec to stateless operation. Cached and stateless operation
// produce byte-identical payloads; only the work profile changes.
type ChunkCacheUser interface {
	UseChunkCache(*ChunkCache)
}
