package core

import (
	"encoding/binary"
	"sync"

	"mhdedup/internal/hashutil"
)

// Striped locking for the hash-keyed maps sessions share (DESIGN §7): the
// cache index and SI-MHD's sparse hook index are each numStripes maps
// behind their own RWMutex, picked by low bits of the (uniform) SHA-1 key,
// and the same stripes serialize hook publication (publishLocks).

// numStripes is the shard count of every striped structure: under 2%
// contention for 8 sessions; a power of two, so a stripe is a mask.
const numStripes = 64

// stripeOf maps a hash to its stripe, purely and stably: the low bits of
// the little-endian word of its first 8 bytes, as the bloom filter derives
// its probe words.
func stripeOf(h hashutil.Sum) int {
	return int(binary.LittleEndian.Uint64(h[:8]) & (numStripes - 1))
}

// stripedIndex is a hash→hash map sharded over numStripes lock-guarded
// maps. Used for the cache index (entry hash → manifest name) and the
// sparse hook index (hook hash → manifest name).
type stripedIndex struct {
	shards [numStripes]indexShard
}

type indexShard struct {
	mu sync.RWMutex
	m  map[hashutil.Sum]hashutil.Sum
}

// newStripedIndex returns an empty index.
func newStripedIndex() *stripedIndex {
	idx := &stripedIndex{}
	for i := range idx.shards {
		idx.shards[i].m = make(map[hashutil.Sum]hashutil.Sum)
	}
	return idx
}

// get returns the value for key, if present.
func (s *stripedIndex) get(key hashutil.Sum) (hashutil.Sum, bool) {
	sh := &s.shards[stripeOf(key)]
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	return v, ok
}

// put sets key→val unconditionally.
func (s *stripedIndex) put(key, val hashutil.Sum) {
	sh := &s.shards[stripeOf(key)]
	sh.mu.Lock()
	sh.m[key] = val
	sh.mu.Unlock()
}

// putIfAbsent sets key→val only if key has no value yet, and reports
// whether it inserted. This is the atomic first-writer-wins insert the
// sparse index needs (the paper keeps the first manifest a hook pointed
// at).
func (s *stripedIndex) putIfAbsent(key, val hashutil.Sum) bool {
	sh := &s.shards[stripeOf(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.m[key]; dup {
		return false
	}
	sh.m[key] = val
	return true
}

// deleteIf removes key only while it still maps to val (so a stale-entry
// cleanup cannot erase a mapping another session just refreshed).
func (s *stripedIndex) deleteIf(key, val hashutil.Sum) {
	sh := &s.shards[stripeOf(key)]
	sh.mu.Lock()
	if cur, ok := sh.m[key]; ok && cur == val {
		delete(sh.m, key)
	}
	sh.mu.Unlock()
}

// del removes key unconditionally.
func (s *stripedIndex) del(key hashutil.Sum) {
	sh := &s.shards[stripeOf(key)]
	sh.mu.Lock()
	delete(sh.m, key)
	sh.mu.Unlock()
}

// len returns the total entry count across stripes (each stripe read under
// its lock; the sum is a consistent-enough RAM estimate, exact when no
// writer is active).
func (s *stripedIndex) len() int {
	var n int
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// publishLocks are the per-hash-stripe mutexes serializing hook
// publication (check-then-create of on-disk hooks and bloom insertion) so
// two sessions finishing files with identical hooks cannot double-create.
type publishLocks struct {
	mu [numStripes]sync.Mutex
}

// lock acquires the publication lock for h's stripe and returns the unlock
// function.
func (p *publishLocks) lock(h hashutil.Sum) func() {
	mu := &p.mu[stripeOf(h)]
	mu.Lock()
	return mu.Unlock
}
