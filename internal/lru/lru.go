// Package lru provides a generic least-recently-used cache with an eviction
// callback.
//
// The deduplicators cache Manifests in RAM to exploit data locality; when
// the cache is full the least recently used Manifest is evicted, and — per
// the paper — a Manifest that has been set dirty by HHR must be written back
// to disk before it is freed. The eviction callback is the hook for that
// write-back.
package lru

import (
	"container/list"
	"fmt"
	"sync"
)

// Cache is an LRU cache from K to V. It is safe for concurrent use: a single
// mutex guards the recency list and the map, so N ingest sessions can share
// one manifest cache. The eviction callback is invoked with the cache lock
// held — it must not call back into the cache (the deduplicator's write-back
// callback touches only the disk and the striped hash index, never the
// cache itself).
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	items    map[K]*list.Element
	order    *list.List // front = most recently used
	onEvict  func(K, V)

	hits, misses, evictions uint64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns a cache holding at most capacity entries. onEvict, if
// non-nil, is called for each entry as it leaves the cache (by LRU pressure
// or Remove; not by Clear with discard=true). onEvict runs under the cache
// lock and must not re-enter the cache.
func New[K comparable, V any](capacity int, onEvict func(K, V)) (*Cache[K, V], error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("lru: capacity must be positive, got %d", capacity)
	}
	return &Cache[K, V]{
		capacity: capacity,
		items:    make(map[K]*list.Element, capacity),
		order:    list.New(),
		onEvict:  onEvict,
	}, nil
}

// Get returns the value for key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		return el.Value.(*entry[K, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Peek returns the value for key without updating recency or hit counters.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put inserts or updates key, marking it most recently used, evicting the
// LRU entry if the cache is over capacity.
func (c *Cache[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	el := c.order.PushFront(&entry[K, V]{key: key, val: val})
	c.items[key] = el
	if c.order.Len() > c.capacity {
		c.evictOldest()
	}
}

// Remove deletes key, invoking the eviction callback if present.
func (c *Cache[K, V]) Remove(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.removeElement(el)
	return true
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns hit/miss/eviction counters.
func (c *Cache[K, V]) Stats() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// Each calls fn for every cached entry, most recently used first. fn runs
// under the cache lock: it must not mutate the cache or call back into it.
func (c *Cache[K, V]) Each(fn func(K, V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[K, V])
		fn(e.key, e.val)
	}
}

// Flush evicts every entry through the eviction callback (used at stream end
// to write back all dirty manifests).
func (c *Cache[K, V]) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.order.Len() > 0 {
		c.evictOldest()
	}
}

// evictOldest must be called with the lock held.
func (c *Cache[K, V]) evictOldest() {
	el := c.order.Back()
	if el != nil {
		c.removeElement(el)
		c.evictions++
	}
}

// removeElement must be called with the lock held.
func (c *Cache[K, V]) removeElement(el *list.Element) {
	e := el.Value.(*entry[K, V])
	c.order.Remove(el)
	delete(c.items, e.key)
	if c.onEvict != nil {
		c.onEvict(e.key, e.val)
	}
}
