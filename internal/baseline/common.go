// Package baseline implements the seven algorithms MHD is compared with:
// the four of the paper's evaluation — plain CDC deduplication (the
// Data-Domain-style baseline of Table I/II's "CDC" column), Bimodal chunking
// (Kruus et al., FAST'10), SubChunk / anchor-driven sub-chunk deduplication
// (Romanski et al., SYSTOR'11) and Sparse Indexing (Lillibridge et al.,
// FAST'09) — and the three related-work schemes its survey discusses (FBC,
// Fingerdiff, Extreme Binning). With MHD and SI-MHD in internal/core that
// makes the nine engines of internal/exp's table.
//
// All seven share the substrates of the MHD implementation — chunkers,
// bloom filter, manifest/hook/file-manifest formats, simulated disk — so
// that metadata and I/O comparisons measure algorithmic differences, not
// implementation accidents. The sharing is by construction: one Config, and
// one embedded base (base.go) that owns the disk, store, bloom filter,
// manifest cache, D/N/L accounting and RAM high-water mark and implements
// Disk, Finish, Report, Restore and the cache → bloom → hook lookup once.
// An engine's file supplies only what is its algorithm: PutFile, its
// private detection state, its manifest format and which substrates it
// stands on (the substrate passed to newBase), and the one RAM term it
// adds (base.extraRAM). Adding an engine is that one file plus one row in
// internal/exp's table.
package baseline

import (
	"mhdedup/internal/hashutil"
	"mhdedup/internal/lru"
	"mhdedup/internal/store"
)

// manifestCache is the locality cache shared by the baselines: an LRU of
// manifests plus a flat hash→manifest index over every cached entry, with
// dirty write-back on eviction (only SparseIndexing ever dirties cached
// manifests; the others' manifests are immutable once written).
type manifestCache struct {
	cache *lru.Cache[hashutil.Sum, *store.Manifest]
	index map[hashutil.Sum]hashutil.Sum
	st    *store.Store
	// loads counts manifest reads from disk.
	loads int64
	// evictErr defers write-back failures to Finish.
	evictErr error
}

func newManifestCache(st *store.Store, capacity int) (*manifestCache, error) {
	mc := &manifestCache{
		index: make(map[hashutil.Sum]hashutil.Sum),
		st:    st,
	}
	cache, err := lru.New[hashutil.Sum, *store.Manifest](capacity, mc.onEvict)
	if err != nil {
		return nil, err
	}
	mc.cache = cache
	return mc, nil
}

func (mc *manifestCache) onEvict(name hashutil.Sum, m *store.Manifest) {
	if err := mc.st.WriteBackManifest(m); err != nil && mc.evictErr == nil {
		mc.evictErr = err
	}
	for _, e := range m.Entries {
		if mc.index[e.Hash] == name {
			delete(mc.index, e.Hash)
		}
	}
}

// insert registers a manifest and indexes its entries.
func (mc *manifestCache) insert(m *store.Manifest) {
	mc.cache.Put(m.Name, m)
	for _, e := range m.Entries {
		mc.index[e.Hash] = m.Name
	}
}

// lookup finds a cached manifest entry by chunk hash.
func (mc *manifestCache) lookup(h hashutil.Sum) (*store.Manifest, int, bool) {
	name, ok := mc.index[h]
	if !ok {
		return nil, 0, false
	}
	m, ok := mc.cache.Get(name)
	if !ok {
		delete(mc.index, h)
		return nil, 0, false
	}
	idx, ok := m.Lookup(h)
	if !ok {
		delete(mc.index, h)
		return nil, 0, false
	}
	return m, idx, true
}

// get returns a cached manifest by name without disk I/O.
func (mc *manifestCache) get(name hashutil.Sum) (*store.Manifest, bool) {
	return mc.cache.Get(name)
}

// load returns the named manifest, reading it from disk (one access) if it
// is not cached.
func (mc *manifestCache) load(name hashutil.Sum) (*store.Manifest, error) {
	if m, ok := mc.cache.Get(name); ok {
		return m, nil
	}
	m, err := mc.st.ReadManifest(name)
	if err != nil {
		return nil, err
	}
	mc.loads++
	mc.insert(m)
	return m, nil
}

// bytesResident sums the sizes of cached manifests (for RAM accounting).
func (mc *manifestCache) bytesResident() int64 {
	var n int64
	mc.cache.Each(func(_ hashutil.Sum, m *store.Manifest) {
		n += int64(m.ByteSize())
	})
	n += int64(len(mc.index)) * (2*hashutil.Size + 8)
	return n
}

// flush evicts everything, writing back dirty manifests, and returns any
// deferred write error.
func (mc *manifestCache) flush() error {
	mc.cache.Flush()
	err := mc.evictErr
	mc.evictErr = nil
	return err
}

// dupTracker folds per-chunk classifications (in stream order) into the
// D/N/L counters.
type dupTracker struct {
	prevDup bool
}

// note records one chunk's classification and returns whether it starts a
// new duplicate slice.
func (dt *dupTracker) note(dup bool) (newSlice bool) {
	newSlice = dup && !dt.prevDup
	dt.prevDup = dup
	return newSlice
}

// reset starts a new file (slices do not span files).
func (dt *dupTracker) reset() { dt.prevDup = false }
