package core

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"mhdedup/internal/algo"
	"mhdedup/internal/chunker"
	"mhdedup/internal/hashutil"
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
// different streams, so a Dedup accepts N concurrent ones: the PutFile,
// PutFileContext and PutChunksContext calls of one stream must not overlap,
// those of different streams may. Per-file state is private; what is
// shared — the substrate every engine stands on (algo.Substrate: bloom
// filter, hook index, manifest cache and its striped index, disk,
// statistics), the per-manifest locks and SI-MHD's striped sparse index —
// is synchronized as DESIGN §7 lays out, locks taken in the order cache →
// manifest → {stripe, disk}. Scanning and SHA-1 run
// ahead of the ordered stage (pipeline.go) and touch no engine state, so a
// single-stream run is bit-identical to the serial engine at any
// GOMAXPROCS: the determinism test pins it to goldens from that engine.
type Dedup struct {
	*algo.Substrate
	cfg Config
	// sparseIdx is SI-MHD's in-RAM hook index (hook hash → manifest name);
	// nil in BF-MHD mode.
	sparseIdx *algo.Index
}

// New returns a Dedup over a fresh simulated disk.
func New(cfg Config) (*Dedup, error) {
	return NewOnDisk(cfg, simdisk.New())
}

// NewOnDisk returns a Dedup over the given disk that deduplicates against
// everything it already stores: the substrate rebuilds the bloom filter
// from the hook names, SI-MHD warms its sparse index from the manifests'
// hook entries (counted reads, the real cost of warming it). Statistics
// start fresh: the Report covers this mount's ingest only.
func NewOnDisk(cfg Config, disk *simdisk.Disk) (*Dedup, error) {
	cfg, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	s, err := algo.Mount(cfg.Options, disk, algo.Needs{Format: store.FormatMHD, Bloom: !cfg.SparseIndex, Cache: true, LoadNS: hManifestLoadNS})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	d := &Dedup{Substrate: s, cfg: cfg}
	if !cfg.SparseIndex {
		return d, nil
	}
	d.sparseIdx = algo.NewIndex()
	// SI-MHD's Table III term: hook hash, manifest name and map overhead.
	d.ExtraRAM = func() int64 { return int64(d.sparseIdx.Len()) * (hashutil.Size + hashutil.Size + 16) }
	for _, name := range disk.Names(simdisk.Manifest) {
		mName, err := hashutil.ParseHex(name)
		if err != nil {
			return nil, fmt.Errorf("core: resume: malformed manifest name %q: %w", name, err)
		}
		m, err := d.Store.ReadManifest(mName)
		if err != nil {
			return nil, fmt.Errorf("core: resume: %w", err)
		}
		for _, e := range m.Entries {
			if e.Kind == store.KindHook {
				d.sparseIdx.PutIfAbsent(e.Hash, mName)
			}
		}
	}
	return d, nil
}

// Config returns the configuration.
func (d *Dedup) Config() Config { return d.cfg }

// pchunk is a chunk in flight: its bytes (a view of the slab the chunker
// read them into, or the caller's buffer for PutChunks), hash and the
// recipe slot it will resolve.
type pchunk struct {
	chunker.Chunk
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
// owned by exactly one stream for the duration of one PutFile — nothing
// in it is shared, which is what makes the hysteresis machinery safe under
// concurrent streams without any locking of its own.
type fileState struct {
	name      string
	chunkName hashutil.Sum
	entries   []store.Entry    // the Manifest's, a merged entry's Hash filled in at a settle
	parts     [][]byte         // flushed chunks, in DiskChunk order: staged as flushed
	stored    chunker.Gather   // the same chunks as runs of their slabs: sealed at file end
	size      int64            // their total length: the DiskChunk offset of the next flush
	runs      [][][]byte       // what names wait for, not yet handed to a hashing goroutine
	sums      [][]hashutil.Sum // their hashes, one slice per hand-off, in queue order
	hashing   sync.WaitGroup   // the goroutines filling sums
	names     []name           // what each queued run names, in queue order
	sizes     map[int64]bool   // the sizes of the queued HHR pieces
	eager     []store.Entry    // pieces named at the split, indexed once the manifest is unlocked
	pending   []pchunk         // non-duplicate chunks awaiting SHM flush (≤ 2·SD)
	replay    []pchunk         // chunks prefetched by FME but not consumed
	pre       []pchunk         // FME's prefetch buffer, reused across extensions
	slots     []slotState
	hooks     []hashutil.Sum    // hook hashes to publish at file end
	facts     [][2]hashutil.Sum // the merged runs' (H, K): the manifest's born facts
	lookups   sampler           // Cached calls, one in 16 timed
	probes    sampler           // probeHook calls, likewise
	src       chunkSource       // the stream's hashed chunks, in order
	scanned   bool              // the engine cut and hashed them itself (PutFile)
}

// A name is what one queued run names: the merged entry f.entries[entry]
// of the file's own manifest, or, with m set, the unnamed HHR piece of m at
// start; and the run's fact K, if known.
type name struct {
	m           *store.Manifest
	entry       int
	start, size int64
	fact        hashutil.Sum
}

// PutFile deduplicates one input file. Files of one stream must be fed in
// backup-stream order; the name must be unique and is the key for Restore.
// For concurrent multi-stream ingest see IngestStreamsContext.
func (d *Dedup) PutFile(name string, r io.Reader) error {
	return d.putFile(context.Background(), name, r)
}

// putFile cuts and hashes r ahead of the ordered stage and ingests it.
func (d *Dedup) putFile(ctx context.Context, name string, r io.Reader) error {
	ch, err := chunker.New(r, d.cfg.chunkerParams(), d.cfg.TTTD, d.cfg.FastCDC)
	if err != nil {
		return err
	}
	return d.ingest(ctx, &fileState{name: name, src: newChunkPipeline(ch), scanned: true})
}

// ingest is the per-stream ordered stage shared by every stream and both
// kinds of source. Cancellation is polled once per chunk, the finest grain
// at which the file can be abandoned cleanly: no FileManifest, no seal.
func (d *Dedup) ingest(ctx context.Context, f *fileState) (err error) {
	defer f.src.stop()
	defer f.hashing.Wait()
	f.chunkName = d.Store.NextName()
	defer func() {
		if err != nil {
			d.Store.UnstageDiskChunk(f.chunkName) // no seal will follow
		}
	}()
	d.Count.FilesTotal.Add(1)
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
	pc, err := f.src.next()
	if err == io.EOF {
		return pchunk{}, false, nil
	}
	if err != nil {
		return pchunk{}, false, err
	}
	size := pc.Size()
	d.Count.ChunksIn.Add(1)
	d.Count.InputBytes.Add(size)
	if f.scanned {
		d.Count.ChunkedBytes.Add(size)
		d.Count.HashedBytes.Add(size)
	}
	pc.slot = len(f.slots)
	f.slots = push(f.slots, slotState{})
	return pc, true, nil
}

// push appends v to s, doubling s when it is full. append itself grows a
// slice past 256 elements by about 1.25×, which copies a file's per-chunk
// arrays about 5× their final size.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, len(s)+1)
	}
	return append(s, v)
}

// process runs one chunk through Fig 4's flow: cached-manifest hit → match
// extension; bloom + on-disk hook hit → load manifest, match extension;
// otherwise buffer as non-duplicate, flushing half the buffer via SHM when
// it fills.
func (d *Dedup) process(f *fileState, pc pchunk) error {
	if f.sizes[pc.Size()] {
		// Cached and Forget below take pc.hash, which can equal a queued
		// piece's only if their sizes are equal; index operations on
		// other hashes commute, so only then must the file settle first.
		d.settle(f)
	}
	lkStart := f.lookups.start()
	m, hit := d.Cached(pc.hash)
	observeSampled(hLookupNS, lkStart)
	if hit {
		if done, err := d.tryExtend(f, m, pc); err != nil || done {
			return err
		}
		// The hash no longer resolves in the manifest (an HHR splice —
		// possibly by a concurrent stream — retired it). Drop the stale
		// index entry and fall through to the hook paths, exactly as the
		// serial engine treated a revalidation miss.
		d.Forget(pc.hash, m.Name)
	}
	prStart := f.probes.start()
	target, ok, err := d.probeHook(pc.hash)
	observeSampled(hHookProbeNS, prStart)
	if err != nil {
		return err
	}
	if ok {
		if len(f.sizes) > 0 && !d.Resident(target) {
			d.settle(f) // a read indexes the manifest, may evict another and samples RAM
		}
		m, read, err := d.Load(target)
		if err != nil {
			return err
		}
		if read {
			d.SampleRAM() // MHD's rule: the peak is sampled at every manifest load
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

// sampleEvery is how many calls of a per-chunk step share one clock read:
// two reads per chunk cost the ordered stage more than the lookups timed.
const sampleEvery = 16

// A sampler counts one file's calls of a per-chunk step. start returns the
// time now for the last of every sampleEvery (the first of a file is the
// coldest, so it would not stand for the rest), the zero Time for others;
// observeSampled records a timed call with weight sampleEvery, so count
// and sum stay estimates over every call.
type sampler int

func (s *sampler) start() time.Time {
	if *s++; *s%sampleEvery != 0 {
		return time.Time{}
	}
	return time.Now()
}

func observeSampled(h *metrics.Histogram, start time.Time) {
	if !start.IsZero() {
		h.ObserveN(int64(time.Since(start)), sampleEvery)
	}
}

// probeHook asks the mode's hook index which manifest first stored h:
// SI-MHD's in-RAM index, which costs no disk access, or the substrate's
// bloom filter and on-disk hook object.
func (d *Dedup) probeHook(h hashutil.Sum) (hashutil.Sum, bool, error) {
	if d.sparseIdx != nil {
		target, ok := d.sparseIdx.Get(h)
		return target, ok, nil
	}
	return d.ProbeHook(h)
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
	for _, e := range f.eager {
		if f.sizes[e.Size] {
			d.settle(f)
		}
		d.Index(e.Hash, m.Name)
	}
	f.eager = f.eager[:0]
	if err == nil && dirty {
		err = d.persistIfOrphaned(m)
	}
	return true, err
}

// persistIfOrphaned writes a dirty manifest back when it is no longer
// cache-resident: another stream's loadManifest may have evicted (and
// written back) it while this stream was still splicing it. An evicted
// manifest object never re-enters the cache, so the Peek race is benign.
func (d *Dedup) persistIfOrphaned(m *store.Manifest) error {
	if d.Resident(m.Name) {
		return nil
	}
	m.Lock()
	defer m.Unlock()
	return d.Store.WriteBackManifest(m)
}

// resolve records a run of chunks as stored back to back from start in
// container: duplicate data found there, or this file's own DiskChunk.
func (d *Dedup) resolve(f *fileState, run []pchunk, dup bool, container hashutil.Sum, start int64) {
	for _, pc := range run {
		size := pc.Size()
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
		d.Store.StageDiskChunk(f.chunkName, off, f.parts[from:])
	}
	f.pending = append(f.pending[:0], f.pending[n:]...)
}

// flushGroup appends one SHM group to the file's DiskChunk and manifest.
// The chunk bytes are not copied here, nor ever: finishFile seals the
// DiskChunk as the runs of the slabs the chunker read them into. Nor are
// the followers hashed here: their run joins f.runs, which goes to a
// hashing goroutine every 16 runs (the lanes' width), and finishFile fills
// the hash in. Their digests are at hand, so the run's fact K costs 20
// bytes of SHA-1 per chunk now.
func (d *Dedup) flushGroup(f *fileState, group []pchunk) {
	d.resolve(f, group, false, f.chunkName, f.size)
	start, lead, from := f.size, group[0].Size(), len(f.parts)
	for _, pc := range group {
		f.parts = push(f.parts, pc.Data)
		f.stored.Add(pc.Chunk)
		f.size += pc.Size()
	}
	f.entries = append(f.entries, store.Entry{Hash: group[0].hash, Start: start, Size: lead, Kind: store.KindHook})
	f.hooks = append(f.hooks, group[0].hash)
	if len(group) == 1 {
		return
	}
	d.Count.HashedBytes.Add(f.size - start - lead)
	f.queue(f.parts[from+1:], name{entry: len(f.entries), fact: runKey(group[1:])})
	f.entries = append(f.entries, store.Entry{Start: start + lead, Size: f.size - start - lead, Kind: store.KindMerged})
}

// queue adds run to what the next settle names for n, handing the runs
// to a hashing goroutine 16 at a time (the lanes' width).
func (f *fileState) queue(run [][]byte, n name) {
	f.names = append(f.names, n)
	if f.runs = append(f.runs, run); len(f.runs) == 16 {
		f.handOff()
	}
}

// settle names all f queued (DESIGN §7). It waits for the hashes, then, in
// queue order, fills in the file's merged entries, pairing each with its
// run fact for the manifest to be born with, and gives each HHR piece its
// hash — in its manifest, if still there — its run fact and its
// cache-index entry, as the serial engine did at the split. The caller
// holds no manifest lock.
func (d *Dedup) settle(f *fileState) {
	f.handOff()
	f.hashing.Wait()
	sums := slices.Concat(f.sums...)
	for i, n := range f.names {
		if n.m == nil {
			f.entries[n.entry].Hash = sums[i]
			f.facts = append(f.facts, [2]hashutil.Sum{sums[i], n.fact})
			continue
		}
		n.m.Lock()
		n.m.Fill(n.start, n.size, sums[i])
		if !n.fact.IsZero() {
			n.m.Learn(sums[i], n.fact)
		}
		n.m.Unlock()
		d.Index(sums[i], n.m.Name)
	}
	f.names, f.sums = f.names[:0], nil
	clear(f.sizes)
}

// handOff starts a goroutine hashing f.runs into a slice of its own, which
// no later append can move.
func (f *fileState) handOff() {
	if len(f.runs) == 0 {
		return
	}
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
// The DiskChunk is sealed as its chunks' runs (chunker.Gather): views of
// the slabs they were read into, except where a view would keep mostly
// bytes the container does not store reachable — those runs are copied.
func (d *Dedup) finishFile(f *fileState) error {
	if len(f.replay) > 0 {
		return fmt.Errorf("core: %d replay chunks left at end of %q", len(f.replay), f.name)
	}
	d.flushPending(f, len(f.pending))
	d.settle(f)
	if f.size > 0 {
		m := store.NewManifest(f.chunkName, store.FormatMHD)
		for _, e := range f.entries {
			m.Append(e)
		}
		if err := d.Store.SealDiskChunk(f.chunkName, f.stored.Runs()...); err != nil {
			return err
		}
		if err := d.Store.CreateManifest(m); err != nil {
			return err
		}
		d.Bear(m.Name, f.facts)
		for _, h := range f.hooks {
			if err := d.publishHook(h, f.chunkName); err != nil {
				return err
			}
		}
		d.Count.Files.Add(1)
		d.Count.StoredDataBytes.Add(f.size)
		// The new manifest is NOT inserted into the cache: per Fig 4,
		// manifests enter RAM only through hook-hit loading. Cross-file
		// locality therefore costs one manifest load per duplicate slice,
		// exactly as Table II charges.
	}

	fm := &store.FileManifest{File: f.name}
	var sl algo.Slices
	for i, s := range f.slots {
		if !s.resolved {
			return fmt.Errorf("core: unresolved chunk %d in %q", i, f.name)
		}
		if err := fm.Append(s.ref); err != nil {
			return err
		}
		d.Classify(&sl, s.dup, s.ref.Size)
	}
	return d.Store.WriteFileManifest(fm)
}

// publishHook makes hook hash h point at the finished file's chunk, in the
// mode's index: SI-MHD's in-RAM one, or the substrate's on-disk hook
// objects behind the bloom filter.
func (d *Dedup) publishHook(h, chunkName hashutil.Sum) error {
	if d.sparseIdx != nil {
		// First writer wins, as in the serial engine: a hook keeps
		// pointing at the first manifest that published it.
		d.sparseIdx.PutIfAbsent(h, chunkName)
		return nil
	}
	return d.PublishHook(h, chunkName)
}
