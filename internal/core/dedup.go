package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
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
// One backup stream is an ordered, stateful process (hysteresis buffer,
// match extension and HHR depend on stream order), but nothing couples
// different streams, so a Dedup accepts N concurrent ones, a Session each.
// Per-file state is private; what is shared — striped hash indexes, the
// atomic bloom filter, the manifest cache and its per-manifest locks, the
// disk, the statistics — is synchronized as DESIGN §7 lays out, locks taken
// in the order cache → manifest → {stripe, disk}. Scanning and SHA-1 run
// ahead of the ordered stage (pipeline.go) and touch no engine state, so a
// single-session run is bit-identical to the serial engine at any
// GOMAXPROCS: the determinism test pins it to goldens from that engine.
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

// NewOnDisk returns a Dedup over the given disk that deduplicates against
// everything it already stores: the bloom filter is rebuilt from the hook
// names (a mount-time directory scan), SI-MHD's sparse index from the
// manifests' hook entries (counted reads, the real cost of warming it).
// Statistics start fresh: the Report covers this session's ingest only.
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
	if d.sparseIdx != nil {
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

// loadManifest brings a manifest into the cache and the flat index from
// disk (one disk access), unless it is already cached. Two sessions racing
// on a name may both read it; the second Put supersedes the first object,
// which stays valid for the session holding it.
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
	// The entry hashes are read before Put, while m is still private: it is
	// shared the instant it enters the cache.
	hashes := make([]hashutil.Sum, len(m.Entries))
	for i, e := range m.Entries {
		hashes[i] = e.Hash
	}
	d.cache.Put(m.Name, m)
	for _, h := range hashes {
		d.cacheIdx.put(h, m.Name)
	}
	d.trackRAM()
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
	entries   []store.Entry    // the Manifest's, a merged entry's Hash filled in at file end
	parts     [][]byte         // flushed chunks, in DiskChunk order: staged as flushed, joined and sealed at file end
	size      int64            // their total length: the DiskChunk offset of the next flush
	runs      [][][]byte       // merged entries' parts, not yet handed to a hashing goroutine
	sums      [][]hashutil.Sum // their hashes, one slice per hand-off, in entry order
	hashing   sync.WaitGroup   // the goroutines filling sums
	pending   []pchunk         // non-duplicate chunks awaiting SHM flush (≤ 2·SD)
	replay    []pchunk         // chunks prefetched by FME but not consumed
	slots     []slotState
	hooks     []hashutil.Sum // hook hashes to publish at file end
	src       chunkSource    // the stream's hashed chunks, in order
	scanned   bool           // the engine cut and hashed them itself (PutFile)
}

// PutFile deduplicates one input file on the default session. Files of one
// stream must be fed in backup-stream order; the name must be unique and
// is the key for Restore. For concurrent multi-stream ingest create one
// Session per stream (NewSession) or use IngestStreamsContext.
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
// kinds of source. Cancellation is polled once per chunk, the finest grain
// at which the file can be abandoned cleanly: no FileManifest, no seal.
func (d *Dedup) ingest(ctx context.Context, f *fileState) (err error) {
	defer f.src.stop()
	defer f.hashing.Wait()
	f.chunkName = d.st.NextName()
	defer func() {
		if err != nil {
			d.st.UnstageDiskChunk(f.chunkName) // no seal will follow
		}
	}()
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
	f.slots = append(f.slots, slotState{})
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
// extension — BME, FME, HHR splices — under that lock. False means the hash
// was retired and the caller goes on down the miss path.
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

// persistIfOrphaned writes a dirty manifest back when it is no longer
// cache-resident: another session's loadManifest may have evicted (and
// written back) it while this session was still splicing it. An evicted
// manifest object never re-enters the cache, so the Peek race is benign.
func (d *Dedup) persistIfOrphaned(m *store.Manifest) error {
	if _, cached := d.cache.Peek(m.Name); cached {
		return nil
	}
	m.Lock()
	defer m.Unlock()
	return d.st.WriteBackManifest(m)
}

// resolve records a run of chunks as stored back to back from start in
// container: duplicate data found there, or this file's own DiskChunk.
func (d *Dedup) resolve(f *fileState, run []pchunk, dup bool, container hashutil.Sum, start int64) {
	for _, pc := range run {
		size := int64(len(pc.data))
		f.slots[pc.slot] = slotState{resolved: true, dup: dup, ref: store.FileRef{Container: container, Start: start, Size: size}}
		start += size
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
// once, at its exact size, from the flushed slices. Nor are the followers
// hashed here: their run joins f.runs, which goes to a hashing goroutine
// every 16 runs (the lanes' width), and finishFile fills the hash in.
func (d *Dedup) flushGroup(f *fileState, group []pchunk) {
	d.resolve(f, group, false, f.chunkName, f.size)
	start, lead, from := f.size, int64(len(group[0].data)), len(f.parts)
	for _, pc := range group {
		f.parts = append(f.parts, pc.data)
		f.size += int64(len(pc.data))
	}
	f.entries = append(f.entries, store.Entry{Hash: group[0].hash, Start: start, Size: lead, Kind: store.KindHook})
	f.hooks = append(f.hooks, group[0].hash)
	if len(group) == 1 {
		return
	}
	d.stats.HashedBytes.Add(f.size - start - lead)
	f.entries = append(f.entries, store.Entry{Start: start + lead, Size: f.size - start - lead, Kind: store.KindMerged})
	if f.runs = append(f.runs, f.parts[from+1:]); len(f.runs) == 16 {
		f.handOff()
	}
}

// handOff starts a goroutine hashing f.runs into a slice of its own, which
// no later append can move.
func (f *fileState) handOff() {
	runs, sums := f.runs, make([]hashutil.Sum, len(f.runs))
	f.runs, f.sums = nil, append(f.sums, sums)
	f.hashing.Add(1)
	go func() {
		defer f.hashing.Done()
		hashutil.SumRuns(runs, sums)
	}()
}

// finishFile flushes the hysteresis buffer, fills in the merged entries'
// hashes, writes the DiskChunk, Manifest and Hooks (a file that turned out
// a complete duplicate writes none of those), emits the FileManifest from
// the recipe slots and folds their classification into the statistics.
func (d *Dedup) finishFile(f *fileState) error {
	if len(f.replay) > 0 {
		return fmt.Errorf("core: %d replay chunks left at end of %q", len(f.replay), f.name)
	}
	d.flushPending(f, len(f.pending))
	if f.size > 0 {
		f.handOff()
		m := store.NewManifest(f.chunkName, store.FormatMHD)
		f.hashing.Wait()
		sums := slices.Concat(f.sums...)
		for _, e := range f.entries {
			if e.Kind == store.KindMerged {
				e.Hash, sums = sums[0], sums[1:]
			}
			m.Append(e)
		}
		if err := d.st.SealDiskChunk(f.chunkName, bytes.Join(f.parts, nil)); err != nil {
			return err
		}
		if err := d.st.CreateManifest(m); err != nil {
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
			d.stats.DupBytes.Add(s.ref.Size)
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
