package server

import (
	"container/list"
	"sync"

	"mhdedup/internal/hashutil"
)

// chunkCache is the server's wire-level chunk byte cache: every chunk
// received over any session is remembered (hash → bytes, LRU by total
// bytes) so that a later offer of the same hash costs zero data bytes on
// the wire. The cache is purely a bandwidth optimization — correctness
// never depends on it. A miss merely puts the chunk on the need-list, so
// eviction, restarts and a zero-byte budget all degrade to "send the
// bytes", never to wrong data. (Every entry was SHA-1-verified against its
// key before it was put, so a hit stands in for received bytes when the
// engine takes an Offer's chunks under the offered digests.)
//
// Lookups that hit PIN the bytes into the caller's batch immediately, so
// an eviction between need-list computation and batch application cannot
// invalidate the answer.
type chunkCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	order   *list.List // front = most recent; values are *cacheEntry
	entries map[hashutil.Sum]*list.Element
}

type cacheEntry struct {
	hash hashutil.Sum
	data []byte
}

// newChunkCache returns a cache holding at most budget bytes of chunk
// payload. budget <= 0 disables caching (every chunk is "needed").
func newChunkCache(budget int64) *chunkCache {
	return &chunkCache{
		budget:  budget,
		order:   list.New(),
		entries: make(map[hashutil.Sum]*list.Element),
	}
}

// get returns the cached bytes for h, refreshing its recency. The
// returned slice is immutable and remains valid after eviction.
func (c *chunkCache) get(h hashutil.Sum) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[h]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).data, true
}

// put remembers a chunk's bytes, evicting least-recently-offered chunks
// to stay within budget. Chunks larger than the whole budget are not
// cached.
func (c *chunkCache) put(h hashutil.Sum, data []byte) {
	if int64(len(data)) > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[h]; ok {
		c.order.MoveToFront(el)
		return
	}
	for c.used+int64(len(data)) > c.budget {
		oldest := c.order.Back()
		if oldest == nil {
			break
		}
		e := oldest.Value.(*cacheEntry)
		c.order.Remove(oldest)
		delete(c.entries, e.hash)
		c.used -= int64(len(e.data))
	}
	c.entries[h] = c.order.PushFront(&cacheEntry{hash: h, data: data})
	c.used += int64(len(data))
}

// stats returns the cached byte total and entry count.
func (c *chunkCache) stats() (bytes int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used, len(c.entries)
}
