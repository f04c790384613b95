package algo

import (
	"encoding/binary"
	"sync"

	"mhdedup/internal/hashutil"
)

// Striped locking for the hash-keyed maps concurrent streams share
// (DESIGN §7): the substrate's cache index and SI-MHD's sparse hook index
// are each NumStripes maps behind their own RWMutex, picked by low bits of
// the (uniform) SHA-1 key, and the same stripes serialize hook publication
// (publishLocks).

// NumStripes is the shard count of every striped structure: under 2%
// contention for 8 streams; a power of two, so a stripe is a mask.
const NumStripes = 64

// StripeOf maps a hash to its stripe, purely and stably: the low bits of
// the little-endian word of its first 8 bytes, as the bloom filter derives
// its probe words.
func StripeOf(h hashutil.Sum) int {
	return int(binary.LittleEndian.Uint64(h[:8]) & (NumStripes - 1))
}

// Index is a hash→hash map sharded over NumStripes lock-guarded maps, safe
// for concurrent use: the cache index (entry hash → manifest name) and
// SI-MHD's sparse hook index (hook hash → manifest name).
type Index struct {
	shards [NumStripes]indexShard
}

type indexShard struct {
	mu sync.RWMutex
	m  map[hashutil.Sum]hashutil.Sum
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	idx := &Index{}
	for i := range idx.shards {
		idx.shards[i].m = make(map[hashutil.Sum]hashutil.Sum)
	}
	return idx
}

// Get returns the value for key, if present.
func (s *Index) Get(key hashutil.Sum) (hashutil.Sum, bool) {
	sh := &s.shards[StripeOf(key)]
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	return v, ok
}

// Put sets key→val unconditionally.
func (s *Index) Put(key, val hashutil.Sum) {
	sh := &s.shards[StripeOf(key)]
	sh.mu.Lock()
	sh.m[key] = val
	sh.mu.Unlock()
}

// PutIfAbsent sets key→val only if key has no value yet, and reports
// whether it inserted. This is the atomic first-writer-wins insert the
// sparse index needs (the paper keeps the first manifest a hook pointed
// at).
func (s *Index) PutIfAbsent(key, val hashutil.Sum) bool {
	sh := &s.shards[StripeOf(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.m[key]; dup {
		return false
	}
	sh.m[key] = val
	return true
}

// DeleteIf removes key only while it still maps to val (so a stale-entry
// cleanup cannot erase a mapping another stream just refreshed).
func (s *Index) DeleteIf(key, val hashutil.Sum) {
	sh := &s.shards[StripeOf(key)]
	sh.mu.Lock()
	if cur, ok := sh.m[key]; ok && cur == val {
		delete(sh.m, key)
	}
	sh.mu.Unlock()
}

// Len returns the total entry count across stripes (each stripe read under
// its lock; the sum is a consistent-enough RAM estimate, exact when no
// writer is active).
func (s *Index) Len() int {
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
// two streams finishing files with identical hooks cannot double-create.
type publishLocks struct {
	mu [NumStripes]sync.Mutex
}

// lock acquires the publication lock for h's stripe and returns the unlock
// function.
func (p *publishLocks) lock(h hashutil.Sum) func() {
	mu := &p.mu[StripeOf(h)]
	mu.Lock()
	return mu.Unlock
}
