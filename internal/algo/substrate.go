package algo

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"mhdedup/internal/bloom"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/lru"
	"mhdedup/internal/metrics"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
)

// Needs states which parts of the substrate an engine's algorithm stands
// on; Mount builds exactly those.
type Needs struct {
	// Format is the engine's manifest format.
	Format store.Format
	// Bloom asks for the bloom filter in front of the on-disk hook index
	// (none with DisableBloom), rebuilt from the disk's hook names.
	Bloom bool
	// Cache asks for the manifest locality cache.
	Cache bool
	// LoadNS, when set, observes every manifest read from disk by Load.
	LoadNS *metrics.Histogram
}

// Substrate is everything an engine does that is not its algorithm: the
// disk and store it writes through, the bloom filter, hook index and
// manifest cache it detects duplicates with, the statistics, the RAM
// high-water mark and the Disk/Finish/Report/Stats/Restore part of
// Deduplicator. All nine engines embed one, so their Table III–V numbers
// come from the same code.
//
// It is safe for concurrent use. The cache takes its own lock, then (in
// the eviction callback) the evicted manifest's, then a stripe of the
// cache index; hook publication takes a stripe lock, then the disk's. An
// engine holding a manifest lock may take stripe locks (Index) but must
// not call into the cache (Cached, Load, Resident, SampleRAM, Finish):
// the order is cache → manifest → {stripe, disk}.
type Substrate struct {
	// Store is the engine's store over the mounted disk.
	Store *store.Store
	// Count holds the run's statistics.
	Count metrics.Atomic
	// ExtraRAM, when set, is the footprint of the engine's own in-RAM
	// detection state: the term its algorithm adds to Table III.
	ExtraRAM func() int64

	disk   *simdisk.Disk
	filter *bloom.Filter // nil without Needs.Bloom or with DisableBloom
	cache  *lru.Cache[hashutil.Sum, *store.Manifest]
	// index maps every entry hash of every cached manifest to the
	// manifest holding it — the "cache of Manifests, each organized as a
	// hash table" of Fig 4, flattened for O(1) lookup.
	index *Index
	// born holds the run facts (H, K; see store.Manifest.Learn) the newest
	// CacheManifests manifests created were born with (see Bear).
	born   *lru.Cache[hashutil.Sum, [][2]hashutil.Sum]
	pub    publishLocks
	loadNS *metrics.Histogram
	peak   atomic.Int64

	errMu    sync.Mutex
	evictErr error // a write-back failure, deferred to Finish
}

// Mount builds the substrate n asks for over disk, with resolved options
// o. The bloom filter is rebuilt from the disk's hook names (a mount-time
// directory scan), so an engine deduplicates against everything the disk
// already stores; statistics start fresh.
func Mount(o Options, disk *simdisk.Disk, n Needs) (*Substrate, error) {
	s := &Substrate{Store: store.New(disk, n.Format), disk: disk, loadNS: n.LoadNS}
	s.Store.SetRecipeConfig(store.RecipeConfig{Trees: o.RecipeTrees})
	if n.Bloom {
		if !o.DisableBloom {
			f, err := bloom.New(o.BloomBytes, bloom.Probes)
			if err != nil {
				return nil, err
			}
			s.filter = f
		}
		for _, name := range disk.Names(simdisk.Hook) {
			h, err := hashutil.ParseHex(name)
			if err != nil {
				return nil, fmt.Errorf("resume: malformed hook name %q: %w", name, err)
			}
			s.FilterAdd(h)
		}
	}
	if n.Cache {
		cache, err := lru.New[hashutil.Sum, *store.Manifest](o.CacheManifests, s.onEvict)
		if err != nil {
			return nil, fmt.Errorf("CacheManifests: %w", err)
		}
		s.born, _ = lru.New[hashutil.Sum, [][2]hashutil.Sum](o.CacheManifests, nil)
		s.cache, s.index = cache, NewIndex()
	}
	return s, nil
}

// Disk exposes the simulated disk.
func (s *Substrate) Disk() *simdisk.Disk { return s.disk }

// Restore rebuilds an ingested file into w.
func (s *Substrate) Restore(name string, w io.Writer) error {
	return s.Store.RestoreFile(name, w)
}

// Stats returns the collected raw statistics.
func (s *Substrate) Stats() metrics.Stats { return s.Count.Snapshot() }

// Report snapshots the statistics plus disk-side accounting.
func (s *Substrate) Report() metrics.Report {
	st := s.Count.Snapshot()
	if st.RAMBytes == 0 {
		st.RAMBytes = s.peak.Load()
	}
	return metrics.BuildReport(st, s.disk)
}

// Finish samples RAM a last time, records the peak and writes back every
// cached dirty manifest. Every PutFile must have returned; the engine
// stays usable for Restore.
func (s *Substrate) Finish() error {
	s.SampleRAM()
	s.Count.RAMBytes.Store(s.peak.Load())
	if s.cache == nil {
		return nil
	}
	s.cache.Flush()
	s.errMu.Lock()
	defer s.errMu.Unlock()
	err := s.evictErr
	s.evictErr = nil
	return err
}

// SampleRAM raises the RAM high-water mark to the current footprint: the
// bloom filter, the cached manifests and their index, and ExtraRAM.
func (s *Substrate) SampleRAM() {
	var cur int64
	if s.filter != nil {
		cur = s.filter.SizeBytes()
	}
	if s.cache != nil {
		s.cache.Each(func(_ hashutil.Sum, m *store.Manifest) {
			m.Lock()
			cur += int64(m.ByteSize())
			m.Unlock()
		})
		cur += int64(s.index.Len()) * (2*hashutil.Size + 8)
	}
	if s.ExtraRAM != nil {
		cur += s.ExtraRAM()
	}
	metrics.MaxInt64(&s.peak, cur)
}

// onEvict writes a dirty manifest back and drops its hashes from the cache
// index. It runs under the cache lock and takes the manifest's, so an
// eviction racing a match extension in another stream waits for it.
func (s *Substrate) onEvict(name hashutil.Sum, m *store.Manifest) {
	m.Lock()
	if err := s.Store.WriteBackManifest(m); err != nil {
		s.errMu.Lock()
		if s.evictErr == nil {
			s.evictErr = err
		}
		s.errMu.Unlock()
	}
	hashes := make([]hashutil.Sum, len(m.Entries))
	for i, e := range m.Entries {
		hashes[i] = e.Hash
	}
	m.Unlock()
	for _, h := range hashes {
		// Only mappings still naming this manifest: a reload of the same
		// name may have registered them again.
		s.index.DeleteIf(h, name)
	}
}

// Cached returns the cached manifest the cache index maps h to. The entry
// is not resolved here: h may have left the manifest since (an HHR splice
// retires hashes), so the caller looks it up, under the manifest's lock
// where streams share it, and calls Forget when it is gone.
func (s *Substrate) Cached(h hashutil.Sum) (*store.Manifest, bool) {
	name, ok := s.index.Get(h)
	if !ok {
		return nil, false
	}
	m, ok := s.cache.Get(name)
	if !ok {
		s.index.DeleteIf(h, name)
		return nil, false
	}
	return m, true
}

// Forget drops the cache index's mapping of h to manifest name.
func (s *Substrate) Forget(h, name hashutil.Sum) { s.index.DeleteIf(h, name) }

// Index maps h to the cached manifest name (a splice's new entries).
func (s *Substrate) Index(h, name hashutil.Sum) { s.index.Put(h, name) }

// Resident reports whether the manifest is in the cache.
func (s *Substrate) Resident(name hashutil.Sum) bool {
	_, ok := s.cache.Peek(name)
	return ok
}

// Bear records the facts (H, K) a just-created manifest was born with, for
// each Load that reads it to be taught. Only the newest CacheManifests
// manifests' are kept; an object read keeps them until it is evicted.
func (s *Substrate) Bear(name hashutil.Sum, facts [][2]hashutil.Sum) {
	if len(facts) > 0 {
		s.born.Put(name, facts)
	}
}

// Load returns the named manifest from the cache, or reads it from disk
// (one access, one ManifestLoad) into the cache and its index; read says
// which. A manifest read is taught the facts it was born with, while Bear's
// table holds them. Two streams racing on a name may both read it: the
// second Put supersedes the first object, which stays valid for the
// stream holding it.
func (s *Substrate) Load(name hashutil.Sum) (m *store.Manifest, read bool, err error) {
	if m, ok := s.cache.Get(name); ok {
		return m, false, nil
	}
	start := time.Now()
	if m, err = s.Store.ReadManifest(name); err != nil {
		return nil, false, err
	}
	if s.loadNS != nil {
		s.loadNS.ObserveSince(start)
	}
	s.Count.ManifestLoads.Add(1)
	// The facts are taught and the hashes read while m is still private:
	// it is shared the instant it enters the cache.
	facts, _ := s.born.Peek(name)
	for _, hk := range facts {
		m.Learn(hk[0], hk[1])
	}
	hashes := make([]hashutil.Sum, len(m.Entries))
	for i, e := range m.Entries {
		hashes[i] = e.Hash
	}
	s.cache.Put(m.Name, m)
	for _, h := range hashes {
		s.index.Put(h, m.Name)
	}
	return m, true, nil
}

// HookExists asks the bloom filter, then the disk (one access), whether a
// hook object for h exists.
func (s *Substrate) HookExists(h hashutil.Sum) bool {
	return (s.filter == nil || s.filter.Test(h)) && s.Store.HookExists(h)
}

// ProbeHook returns the manifest the hook object for h names first, when
// HookExists: bloom filter, hook existence, hook read.
func (s *Substrate) ProbeHook(h hashutil.Sum) (hashutil.Sum, bool, error) {
	if !s.HookExists(h) {
		return hashutil.Sum{}, false, nil
	}
	targets, err := s.Store.ReadHook(h)
	if err != nil || len(targets) == 0 {
		return hashutil.Sum{}, false, err
	}
	return targets[0], true, nil
}

// PublishHook makes h's hook object name manifest unless an earlier file
// hooked h already, and adds h to the bloom filter. The stripe lock makes
// the check and the create one step across streams.
func (s *Substrate) PublishHook(h, manifest hashutil.Sum) error {
	unlock := s.pub.lock(h)
	defer unlock()
	if s.Store.HookKnown(h) {
		return nil
	}
	if err := s.Store.CreateHook(h, manifest); err != nil {
		return err
	}
	s.FilterAdd(h)
	return nil
}

// FilterAdd adds h to the bloom filter, if there is one.
func (s *Substrate) FilterAdd(h hashutil.Sum) {
	if s.filter != nil {
		s.filter.Add(h)
	}
}

// Slices is one file's duplicate-slice state for Classify.
type Slices struct{ prevDup bool }

// Classify counts one chunk of a file, in stream order, as duplicate (D,
// its bytes, and L when it opens a duplicate slice) or not (N).
func (s *Substrate) Classify(sl *Slices, dup bool, size int64) {
	if !dup {
		s.Count.NonDupChunks.Add(1)
	} else {
		s.Count.DupChunks.Add(1)
		s.Count.DupBytes.Add(size)
		if !sl.prevDup {
			s.Count.DupSlices.Add(1)
		}
	}
	sl.prevDup = dup
}
