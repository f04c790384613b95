package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"mhdedup/internal/bloom"
	"mhdedup/internal/chunker"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/lru"
	"mhdedup/internal/metrics"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
)

// Dedup is an MHD deduplicator. Feed input files in stream order with
// PutFile, then call Finish to write back cached state; Stats/Report expose
// the paper's metrics and Restore rebuilds any ingested file.
//
// Concurrency model: deduplication of ONE backup stream is an ordered,
// stateful process (hysteresis buffer, match extension and HHR all depend
// on stream order), but nothing couples DIFFERENT streams — different
// machines' disk images, different days of a rotation — so a Dedup accepts
// N concurrent streams. Each stream is a Session (NewSession) whose
// per-file state (hysteresis buffer, BME/FME context, recipe slots) is
// private; everything shared sits behind fine-grained synchronization:
//
//   - hash→location indexes (cache index, sparse hook index): 64-way
//     striped RWMutexes keyed by low hash bits (stripe.go);
//   - bloom filter: lock-free atomic word access, bit layout unchanged;
//   - manifest LRU cache: internally locked; cache-resident manifests are
//     additionally guarded by a per-manifest mutex held across match
//     extension and eviction write-back;
//   - simulated disk and its cost counters: one mutex inside simdisk, so
//     access totals stay exact;
//   - statistics: metrics.Atomic counters.
//
// Lock order is cache → manifest → {stripe, disk}; no path acquires them
// in the reverse direction, and stripe/disk are leaves.
//
// Inside one stream, boundary scanning and chunk SHA-1 run ahead of this
// ordered stage on the file's chunkPipeline (pipeline.go); they touch no
// engine state, so the ordered stage performs the serial engine's
// operations in the serial engine's order. A single-session run's
// manifests, metrics and disk counters are therefore bit-identical to the
// pre-concurrency, pre-pipeline engine at any GOMAXPROCS — the determinism
// regression test pins this against goldens recorded from that engine.
type Dedup struct {
	cfg    Config
	disk   *simdisk.Disk
	st     *store.Store
	filter *bloom.Filter
	cache  *lru.Cache[hashutil.Sum, *store.Manifest]
	// cacheIdx maps every entry hash of every cached manifest to the
	// manifest holding it — the "cache of Manifests, each organized as a
	// hash table" of Fig 4, flattened for O(1) lookup and striped for
	// concurrency.
	cacheIdx *stripedIndex
	// sparseIdx is SI-MHD's in-RAM hook index (hook hash → manifest name);
	// nil in BF-MHD mode.
	sparseIdx *stripedIndex
	// pubLocks serialize hook publication per hash stripe, making the
	// check-then-create of hooks atomic across sessions.
	pubLocks publishLocks

	stats   metrics.Atomic
	peakRAM atomic.Int64

	errMu       sync.Mutex
	evictionErr error

	defaultSession *Session
}

// New returns a Dedup over a fresh simulated disk.
func New(cfg Config) (*Dedup, error) {
	return NewOnDisk(cfg, simdisk.New())
}

// NewOnDisk returns a Dedup writing to the given disk (shared-disk setups
// and failure-injection tests).
func NewOnDisk(cfg Config, disk *simdisk.Disk) (*Dedup, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Dedup{
		cfg:      cfg,
		disk:     disk,
		st:       store.New(disk, store.FormatMHD),
		cacheIdx: newStripedIndex(),
	}
	d.st.SetRecipeConfig(store.RecipeConfig{Trees: cfg.RecipeTrees})
	if cfg.SparseIndex {
		d.sparseIdx = newStripedIndex()
	} else if cfg.UseBloom {
		f, err := bloom.New(cfg.BloomBytes, cfg.BloomHashes)
		if err != nil {
			return nil, err
		}
		d.filter = f
	}
	cache, err := lru.New[hashutil.Sum, *store.Manifest](cfg.CacheManifests, d.onEvict)
	if err != nil {
		return nil, err
	}
	d.cache = cache
	d.defaultSession = &Session{d: d}
	return d, nil
}

// Disk exposes the simulated disk for metrics collection.
func (d *Dedup) Disk() *simdisk.Disk { return d.disk }

// Config returns the configuration.
func (d *Dedup) Config() Config { return d.cfg }

// onEvict writes a dirty manifest back to disk and drops its hashes from
// the flat cache index. Write errors are deferred to Finish (the LRU
// callback cannot fail). It runs with the cache lock held and takes the
// manifest lock, so an eviction racing a match extension in another
// session serializes on the manifest.
func (d *Dedup) onEvict(name hashutil.Sum, m *store.Manifest) {
	m.Lock()
	if err := d.st.WriteBackManifest(m); err != nil {
		d.errMu.Lock()
		if d.evictionErr == nil {
			d.evictionErr = err
		}
		d.errMu.Unlock()
	}
	hashes := make([]hashutil.Sum, len(m.Entries))
	for i, e := range m.Entries {
		hashes[i] = e.Hash
	}
	m.Unlock()
	for _, h := range hashes {
		// Only remove mappings still pointing at this manifest: a reload
		// of the same name may have re-registered them.
		d.cacheIdx.deleteIf(h, name)
	}
}

// cacheInsert registers a manifest in the LRU cache and the flat index.
// The entry hashes are collected before Put while the manifest is still
// private to this goroutine (a freshly decoded manifest becomes shared the
// instant it enters the cache).
func (d *Dedup) cacheInsert(m *store.Manifest) {
	hashes := make([]hashutil.Sum, len(m.Entries))
	for i, e := range m.Entries {
		hashes[i] = e.Hash
	}
	d.cache.Put(m.Name, m)
	for _, h := range hashes {
		d.cacheIdx.put(h, m.Name)
	}
	d.trackRAM()
}

// indexEntries refreshes the flat index after a splice added entries to m.
// Called with m's lock held (stripe locks nest inside manifest locks).
func (d *Dedup) indexEntries(m *store.Manifest, entries []store.Entry) {
	for _, e := range entries {
		d.cacheIdx.put(e.Hash, m.Name)
	}
}

// trackRAM updates the peak resident-memory estimate: bloom filter plus
// cached manifests plus the flat index.
func (d *Dedup) trackRAM() {
	var cur int64
	if d.filter != nil {
		cur = d.filter.SizeBytes()
	}
	d.cache.Each(func(_ hashutil.Sum, m *store.Manifest) {
		m.Lock()
		cur += int64(m.ByteSize())
		m.Unlock()
	})
	cur += int64(d.cacheIdx.len()) * (hashutil.Size + hashutil.Size + 8)
	if d.sparseIdx != nil {
		cur += int64(d.sparseIdx.len()) * (hashutil.Size + hashutil.Size + 16)
	}
	metrics.MaxInt64(&d.peakRAM, cur)
}

// lookupCached consults the flat cache index and returns the cached
// manifest the hash maps to. The entry index is NOT resolved here: the
// caller revalidates under the manifest lock (tryExtend), because a
// concurrent HHR splice can retire the hash between the index lookup and
// the extension.
func (d *Dedup) lookupCached(h hashutil.Sum) (*store.Manifest, bool) {
	name, ok := d.cacheIdx.get(h)
	if !ok {
		return nil, false
	}
	m, ok := d.cache.Get(name)
	if !ok {
		d.cacheIdx.deleteIf(h, name)
		return nil, false
	}
	return m, true
}

// loadManifest brings a manifest into the cache from disk (one disk
// access), unless it is already cached. Two sessions racing on the same
// name may both read it; the second Put supersedes the first object, which
// remains valid for the session still holding it (its entries reference
// immutable DiskChunk bytes).
func (d *Dedup) loadManifest(name hashutil.Sum) (*store.Manifest, error) {
	if m, ok := d.cache.Get(name); ok {
		return m, nil
	}
	start := time.Now()
	m, err := d.st.ReadManifest(name)
	if err != nil {
		return nil, err
	}
	hManifestLoadNS.ObserveSince(start)
	d.stats.ManifestLoads.Add(1)
	d.cacheInsert(m)
	return m, nil
}

// pchunk is a chunk in flight: its bytes, hash and the recipe slot it will
// resolve.
type pchunk struct {
	data []byte
	hash hashutil.Sum
	slot int
}

// slotState records the eventual fate of one input chunk, in stream order,
// so the FileManifest can be emitted in order even though classification
// happens out of order (BME resolves buffer tails before earlier chunks
// flush).
type slotState struct {
	resolved bool
	dup      bool
	size     int64
	ref      store.FileRef
}

// fileState is the per-input-file processing context: one DiskChunk, one
// Manifest, the pending (hysteresis) buffer and the recipe slots. It is
// owned by exactly one Session for the duration of one PutFile — nothing
// in it is shared, which is what makes the hysteresis machinery safe under
// concurrent streams without any locking of its own.
type fileState struct {
	name      string
	chunkName hashutil.Sum
	manifest  *store.Manifest
	parts     [][]byte // flushed chunks, in DiskChunk order: staged as flushed, joined and sealed at file end
	size      int64    // their total length: the DiskChunk offset of the next flush
	pending   []pchunk // non-duplicate chunks awaiting SHM flush (≤ 2·SD)
	replay    []pchunk // chunks prefetched by FME but not consumed
	slots     []slotState
	hooks     []hashutil.Sum // hook hashes to publish at file end
	src       chunkSource    // the stream's hashed chunks, in order
	scanned   bool           // the engine cut and hashed them itself (PutFile)
}

// PutFile deduplicates one input file on the default session. Files of one
// stream must be fed in backup-stream order; the name must be unique and
// is the key for Restore. For concurrent multi-stream ingest create one
// Session per stream (NewSession) or use IngestStreams.
func (d *Dedup) PutFile(name string, r io.Reader) error {
	return d.defaultSession.PutFile(name, r)
}

// putFile cuts and hashes r ahead of the ordered stage and ingests it.
func (d *Dedup) putFile(ctx context.Context, name string, r io.Reader) error {
	ch, err := chunker.New(r, d.cfg.chunkerParams(), d.cfg.TTTD, d.cfg.FastCDC)
	if err != nil {
		return err
	}
	return d.ingest(ctx, &fileState{name: name, src: newChunkPipeline(ch), scanned: true})
}

// ingest is the per-stream ordered stage shared by every session and both
// kinds of source. Cancellation is polled once per chunk — the finest
// boundary at which the hysteresis state is consistent enough to abandon
// the file cleanly (no FileManifest is emitted, so the partial file never
// looks restorable).
func (d *Dedup) ingest(ctx context.Context, f *fileState) (err error) {
	defer f.src.stop()
	f.chunkName = d.st.NextName()
	defer func() {
		if err != nil {
			d.st.UnstageDiskChunk(f.chunkName) // no seal will follow
		}
	}()
	f.manifest = store.NewManifest(f.chunkName, store.FormatMHD)
	d.stats.FilesTotal.Add(1)
	done := ctx.Done()
	for {
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		pc, ok, err := d.nextChunk(f)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := d.process(f, pc); err != nil {
			return err
		}
	}
	return d.finishFile(f)
}

// nextChunk yields the next chunk in stream order: FME leftovers first,
// then fresh chunks from the file's source.
func (d *Dedup) nextChunk(f *fileState) (pchunk, bool, error) {
	if len(f.replay) > 0 {
		pc := f.replay[0]
		f.replay = f.replay[1:]
		return pc, true, nil
	}
	return d.pull(f)
}

// pull takes one fresh, already hashed chunk off the file's source and
// allocates its recipe slot.
func (d *Dedup) pull(f *fileState) (pchunk, bool, error) {
	start := time.Now()
	pc, err := f.src.next()
	if err == io.EOF {
		return pchunk{}, false, nil
	}
	if err != nil {
		return pchunk{}, false, err
	}
	hChunkNS.ObserveSince(start)
	size := int64(len(pc.data))
	d.stats.ChunksIn.Add(1)
	d.stats.InputBytes.Add(size)
	if f.scanned {
		d.stats.ChunkedBytes.Add(size)
		d.stats.HashedBytes.Add(size)
	}
	pc.slot = len(f.slots)
	f.slots = append(f.slots, slotState{size: size})
	return pc, true, nil
}

// process runs one chunk through Fig 4's flow: cached-manifest hit → match
// extension; bloom + on-disk hook hit → load manifest, match extension;
// otherwise buffer as non-duplicate, flushing half the buffer via SHM when
// it fills.
func (d *Dedup) process(f *fileState, pc pchunk) error {
	lkStart := time.Now()
	m, hit := d.lookupCached(pc.hash)
	hLookupNS.ObserveSince(lkStart)
	if hit {
		if done, err := d.tryExtend(f, m, pc); err != nil || done {
			return err
		}
		// The hash no longer resolves in the manifest (an HHR splice —
		// possibly by a concurrent session — retired it). Drop the stale
		// index entry and fall through to the hook paths, exactly as the
		// serial engine treated a revalidation miss.
		d.cacheIdx.deleteIf(pc.hash, m.Name)
	}
	prStart := time.Now()
	target, ok, err := d.probeHook(pc.hash)
	hHookProbeNS.ObserveSince(prStart)
	if err != nil {
		return err
	}
	if ok {
		m, err := d.loadManifest(target)
		if err != nil {
			return err
		}
		if done, err := d.tryExtend(f, m, pc); err != nil || done {
			return err
		}
	}
	f.pending = append(f.pending, pc)
	if len(f.pending) >= 2*d.cfg.SD {
		d.flushPending(f, d.cfg.SD)
	}
	return nil
}

// probeHook asks the mode's hook index which manifest first stored h:
// SI-MHD's in-RAM index, which costs no disk access, or the bloom filter
// and then the on-disk hook object.
func (d *Dedup) probeHook(h hashutil.Sum) (hashutil.Sum, bool, error) {
	if d.sparseIdx != nil {
		target, ok := d.sparseIdx.get(h)
		return target, ok, nil
	}
	if (d.filter != nil && !d.filter.Test(h)) || !d.st.HookExists(h) {
		return hashutil.Sum{}, false, nil
	}
	targets, err := d.st.ReadHook(h)
	if err != nil || len(targets) == 0 {
		return hashutil.Sum{}, false, err
	}
	return targets[0], true, nil
}

// tryExtend locks the (possibly shared) manifest, revalidates that the
// chunk's hash still resolves to an entry, and runs the whole match
// extension — BME, FME, HHR splices — inside that critical section. It
// reports whether the chunk was handled; false means the hash was retired
// and the caller should continue down the miss path. If extension dirtied
// a manifest that has meanwhile been evicted from the cache, the splice is
// written back here so it is never lost.
func (d *Dedup) tryExtend(f *fileState, m *store.Manifest, pc pchunk) (bool, error) {
	m.Lock()
	idx, ok := m.Lookup(pc.hash)
	if !ok {
		m.Unlock()
		return false, nil
	}
	err := d.extendMatch(f, m, idx, pc)
	dirty := m.Dirty()
	m.Unlock()
	if err != nil {
		return true, err
	}
	if dirty {
		if err := d.persistIfOrphaned(m); err != nil {
			return true, err
		}
	}
	return true, nil
}

// persistIfOrphaned writes a dirty manifest back to disk when it is no
// longer cache-resident. In the serial engine this never fires (a manifest
// under extension cannot be evicted mid-extension); under concurrency
// another session's cacheInsert can evict — and write back — a manifest
// while this session is still splicing it, which would strand the splice
// in an orphaned object. Once evicted, a manifest object can never re-enter
// the cache (loads decode fresh copies), so the Peek race is benign: if it
// is present it will be written back by eviction or Finish, if absent we
// write it back ourselves.
func (d *Dedup) persistIfOrphaned(m *store.Manifest) error {
	if _, cached := d.cache.Peek(m.Name); cached {
		return nil
	}
	m.Lock()
	defer m.Unlock()
	return d.st.WriteBackManifest(m)
}

// resolveDup records a chunk as duplicate data found at the given location.
func (d *Dedup) resolveDup(f *fileState, pc pchunk, container hashutil.Sum, start int64) {
	f.slots[pc.slot] = slotState{
		resolved: true,
		dup:      true,
		size:     int64(len(pc.data)),
		ref:      store.FileRef{Container: container, Start: start, Size: int64(len(pc.data))},
	}
}

// resolveOwn records a chunk as stored in this file's DiskChunk at start.
func (d *Dedup) resolveOwn(f *fileState, pc pchunk, start int64) {
	f.slots[pc.slot] = slotState{
		resolved: true,
		size:     int64(len(pc.data)),
		ref:      store.FileRef{Container: f.chunkName, Start: start, Size: int64(len(pc.data))},
	}
}

// flushPending flushes the first n pending chunks to the file's DiskChunk
// buffer, performing SHM per group of SD chunks: the group leader's hash is
// kept verbatim as a Hook entry, the up-to-SD−1 followers merge into one
// hash over their concatenated bytes. The flushed chunks are staged with
// the store at once, by reference: a write-ahead log, if there is one, has
// the container on its way to the platter while the file is still being cut.
func (d *Dedup) flushPending(f *fileState, n int) {
	n = min(n, len(f.pending))
	from, off := len(f.parts), f.size
	for start := 0; start < n; start += d.cfg.SD {
		d.flushGroup(f, f.pending[start:min(start+d.cfg.SD, n)])
	}
	if from < len(f.parts) {
		d.st.StageDiskChunk(f.chunkName, off, f.parts[from:])
	}
	f.pending = append(f.pending[:0], f.pending[n:]...)
}

// flushGroup appends one SHM group to the file's DiskChunk and manifest.
// The chunk bytes are not copied here: finishFile assembles the DiskChunk
// once, at its exact size, from the flushed slices.
func (d *Dedup) flushGroup(f *fileState, group []pchunk) {
	lead := group[0]
	f.manifest.Append(store.Entry{
		Hash:  lead.hash,
		Start: f.size,
		Size:  int64(len(lead.data)),
		Kind:  store.KindHook,
	})
	f.hooks = append(f.hooks, lead.hash)
	d.flushChunk(f, lead)
	if len(group) == 1 {
		return
	}
	mergedStart := f.size
	h := hashutil.NewHasher()
	for _, pc := range group[1:] {
		d.flushChunk(f, pc)
		h.Write(pc.data)
	}
	mergedSize := f.size - mergedStart
	d.stats.HashedBytes.Add(mergedSize)
	f.manifest.Append(store.Entry{
		Hash:  h.Sum(),
		Start: mergedStart,
		Size:  mergedSize,
		Kind:  store.KindMerged,
	})
}

// flushChunk places one chunk at the end of the file's DiskChunk.
func (d *Dedup) flushChunk(f *fileState, pc pchunk) {
	d.resolveOwn(f, pc, f.size)
	f.parts = append(f.parts, pc.data)
	f.size += int64(len(pc.data))
}

// finishFile flushes the hysteresis buffer, writes the DiskChunk, Manifest
// and Hooks (files that turned out to be complete duplicates write none of
// those), emits the FileManifest from the recipe slots, and folds the
// file's slot classification into the global duplicate statistics. Hook
// publication holds the hash's stripe lock across the check-then-create so
// two sessions finishing identical content cannot double-create a hook.
func (d *Dedup) finishFile(f *fileState) error {
	if len(f.replay) > 0 {
		return fmt.Errorf("core: %d replay chunks left at end of %q", len(f.replay), f.name)
	}
	d.flushPending(f, len(f.pending))
	if f.size > 0 {
		if err := d.st.SealDiskChunk(f.chunkName, bytes.Join(f.parts, nil)); err != nil {
			return err
		}
		if err := d.st.CreateManifest(f.manifest); err != nil {
			return err
		}
		for _, h := range f.hooks {
			if err := d.publishHook(h, f.chunkName); err != nil {
				return err
			}
		}
		d.stats.Files.Add(1)
		d.stats.StoredDataBytes.Add(f.size)
		// The new manifest is NOT inserted into the cache: per Fig 4,
		// manifests enter RAM only through hook-hit loading. Cross-file
		// locality therefore costs one manifest load per duplicate slice,
		// exactly as Table II charges.
	}

	fm := &store.FileManifest{File: f.name}
	prevDup := false
	for i, s := range f.slots {
		if !s.resolved {
			return fmt.Errorf("core: unresolved chunk %d in %q", i, f.name)
		}
		if err := fm.Append(s.ref); err != nil {
			return err
		}
		if s.dup {
			d.stats.DupChunks.Add(1)
			d.stats.DupBytes.Add(s.size)
			if !prevDup {
				d.stats.DupSlices.Add(1)
			}
		} else {
			d.stats.NonDupChunks.Add(1)
		}
		prevDup = s.dup
	}
	return d.st.WriteFileManifest(fm)
}

// publishHook makes hook hash h point at the finished file's chunk, in the
// mode-appropriate index: the sparse in-RAM index (SI-MHD) or an on-disk
// hook object plus the bloom filter (BF-MHD). The per-stripe publication
// lock makes the known-check and the create one atomic step.
func (d *Dedup) publishHook(h, chunkName hashutil.Sum) error {
	if d.sparseIdx != nil {
		// First writer wins, as in the serial engine: a hook keeps
		// pointing at the first manifest that published it.
		d.sparseIdx.putIfAbsent(h, chunkName)
		return nil
	}
	unlock := d.pubLocks.lock(h)
	defer unlock()
	if d.st.HookKnown(h) {
		return nil // an identical chunk was hooked by an earlier file
	}
	if err := d.st.CreateHook(h, chunkName); err != nil {
		return err
	}
	if d.filter != nil {
		d.filter.Add(h)
	}
	return nil
}

// Finish writes back all cached dirty manifests and finalizes RAM
// accounting. All sessions must have completed their PutFile calls before
// Finish. The Dedup remains usable for Restore afterwards.
func (d *Dedup) Finish() error {
	d.trackRAM()
	d.cache.Flush()
	d.stats.RAMBytes.Store(d.peakRAM.Load())
	d.errMu.Lock()
	err := d.evictionErr
	d.evictionErr = nil
	d.errMu.Unlock()
	return err
}

// Stats returns the collected raw statistics.
func (d *Dedup) Stats() metrics.Stats { return d.stats.Snapshot() }

// Report snapshots statistics plus disk-side accounting.
func (d *Dedup) Report() metrics.Report {
	s := d.stats.Snapshot()
	if s.RAMBytes == 0 {
		s.RAMBytes = d.peakRAM.Load()
	}
	return metrics.BuildReport(s, d.disk)
}

// Restore rebuilds a previously ingested file into w.
func (d *Dedup) Restore(name string, w io.Writer) error {
	return d.st.RestoreFile(name, w)
}

// Resume returns a Dedup over an existing deduplicated disk (e.g. one
// reloaded with simdisk.LoadDir): new files deduplicate against everything
// already stored. The in-RAM duplicate-detection state is rebuilt from the
// on-disk hooks — the bloom filter from the hook names (a mount-time
// directory scan), or, for SI-MHD, the sparse index from the hook payloads
// (counted disk reads, the real cost of warming that index). Statistics
// start fresh: the Report covers this session's ingest only.
func Resume(cfg Config, disk *simdisk.Disk) (*Dedup, error) {
	d, err := NewOnDisk(cfg, disk)
	if err != nil {
		return nil, err
	}
	if d.sparseIdx != nil {
		// SI-MHD keeps no hook objects on disk; its index is rebuilt by
		// scanning the manifests' hook-flagged entries (F counted reads —
		// the honest cost of warming the index at mount).
		for _, name := range disk.Names(simdisk.Manifest) {
			mName, err := hashutil.ParseHex(name)
			if err != nil {
				return nil, fmt.Errorf("core: resume: malformed manifest name %q: %w", name, err)
			}
			m, err := d.st.ReadManifest(mName)
			if err != nil {
				return nil, fmt.Errorf("core: resume: %w", err)
			}
			for _, e := range m.Entries {
				if e.Kind == store.KindHook {
					d.sparseIdx.putIfAbsent(e.Hash, mName)
				}
			}
		}
		return d, nil
	}
	for _, name := range disk.Names(simdisk.Hook) {
		h, err := hashutil.ParseHex(name)
		if err != nil {
			return nil, fmt.Errorf("core: resume: malformed hook name %q: %w", name, err)
		}
		if d.filter != nil {
			d.filter.Add(h)
		}
	}
	return d, nil
}
