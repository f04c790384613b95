package baseline

import (
	"fmt"
	"io"

	"mhdedup/internal/bloom"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/rabin"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
)

// Config parameterizes every engine of this package. An engine reads the
// fields its algorithm uses and ignores the rest.
type Config struct {
	// ECS is the expected (small) chunk size in bytes.
	ECS int
	// SD aligns granularity across algorithms as the paper does: it is the
	// big/small chunk ratio of Bimodal, SubChunk and FBC (big chunks are
	// ECS·SD expected), Sparse's hook sampling rate (1/SD) and the longest
	// run of contiguous non-duplicate chunks Fingerdiff coalesces into one
	// stored chunk. CDC and ExtremeBinning ignore it.
	SD int
	// BloomBytes/BloomHashes size the bloom filter in front of the on-disk
	// hook index; UseBloom false removes it (Table II's no-bloom ablation).
	// Engines that keep no on-disk hook index (Sparse, Fingerdiff,
	// ExtremeBinning) have no filter.
	BloomBytes  int
	BloomHashes int
	UseBloom    bool
	// CacheManifests is the manifest locality cache capacity (Fingerdiff
	// and ExtremeBinning keep no cache).
	CacheManifests int
	// Poly optionally overrides the Rabin polynomial.
	Poly rabin.Poly
	// RecipeTrees stores file recipes as deduplicated recipe trees instead
	// of flat manifests (see store.RecipeConfig).
	RecipeTrees bool

	// Sparse only, following the paper's experimental setup: segments of
	// ECS·SD·SegmentFactor bytes, at most MaxChampions champion manifests
	// per segment and at most MaxManifestsPerHook manifests per
	// sparse-index entry (LRU).
	SegmentFactor       int
	MaxChampions        int
	MaxManifestsPerHook int

	// FBC only: FreqThreshold is the estimated small-chunk frequency at
	// which a big chunk is considered to contain popular content and is
	// re-chunked; SketchRows/SketchWidth size the count-min sketch.
	FreqThreshold uint32
	SketchRows    int
	SketchWidth   int
}

// DefaultConfig returns a usable default for any engine, with Sparse set up
// as in the paper (segment = ECS·SD·5, 10 champions, 5 manifests per hook).
func DefaultConfig() Config {
	return Config{
		ECS:                 4096,
		SD:                  64,
		BloomBytes:          1 << 20,
		BloomHashes:         5,
		UseBloom:            true,
		CacheManifests:      64,
		SegmentFactor:       5,
		MaxChampions:        10,
		MaxManifestsPerHook: 5,
		FreqThreshold:       2,
		SketchRows:          4,
		SketchWidth:         1 << 16,
	}
}

// substrate states which of the shared substrates an engine's algorithm
// stands on; newBase validates and builds exactly those.
type substrate struct {
	// format is the engine's manifest format.
	format store.Format
	// minSD is the least SD the algorithm can run with; zero when it
	// ignores SD.
	minSD int
	// bloom asks for the bloom filter in front of an on-disk hook index
	// (still subject to Config.UseBloom); cache for the manifest locality
	// cache.
	bloom, cache bool
}

// base is everything an engine does that is not its algorithm: the disk and
// store it writes through, the bloom filter and manifest cache it detects
// duplicates with, the D/N/L accounting, the RAM high-water mark, and the
// Disk/Finish/Report/Restore quarter of algo.Deduplicator. Every engine
// embeds one, so those are the same code for all of them — which is what
// lets their metadata and I/O numbers be compared.
type base struct {
	cfg  Config
	disk *simdisk.Disk
	st   *store.Store
	// filter is nil without substrate.bloom or Config.UseBloom; mc is nil
	// without substrate.cache.
	filter *bloom.Filter
	mc     *manifestCache
	stats  metrics.Stats
	dt     dupTracker
	peak   int64
	// extraRAM returns the footprint of the engine's own in-RAM detection
	// state — the term its algorithm adds to Table III. Nil when the bloom
	// filter and manifest cache are all it holds.
	extraRAM func() int64
}

// newBase validates cfg against what the engine uses and mounts the
// substrates over disk. The filter, cache and sketch constructors reject
// their own out-of-range parameters.
func newBase(cfg Config, disk *simdisk.Disk, use substrate) (base, error) {
	if cfg.ECS <= 0 {
		return base{}, fmt.Errorf("baseline: ECS must be positive, got %d", cfg.ECS)
	}
	if cfg.SD < use.minSD {
		return base{}, fmt.Errorf("baseline: SD must be at least %d, got %d", use.minSD, cfg.SD)
	}
	b := base{cfg: cfg, disk: disk, st: store.New(disk, use.format)}
	b.st.SetRecipeConfig(store.RecipeConfig{Trees: cfg.RecipeTrees})
	if use.bloom && cfg.UseBloom {
		f, err := bloom.New(cfg.BloomBytes, cfg.BloomHashes)
		if err != nil {
			return base{}, fmt.Errorf("baseline: %w", err)
		}
		b.filter = f
	}
	if use.cache {
		mc, err := newManifestCache(b.st, cfg.CacheManifests)
		if err != nil {
			return base{}, fmt.Errorf("baseline: CacheManifests: %w", err)
		}
		b.mc = mc
	}
	return b, nil
}

// Disk exposes the simulated disk.
func (b *base) Disk() *simdisk.Disk { return b.disk }

// Restore rebuilds an ingested file.
func (b *base) Restore(name string, w io.Writer) error {
	return b.st.RestoreFile(name, w)
}

// Finish finalizes RAM accounting and flushes the manifest cache.
func (b *base) Finish() error {
	b.trackRAM()
	b.stats.RAMBytes = b.peak
	if b.mc == nil {
		return nil
	}
	return b.mc.flush()
}

// Report returns statistics plus disk accounting.
func (b *base) Report() metrics.Report {
	s := b.stats
	if b.mc != nil {
		s.ManifestLoads += b.mc.loads
	}
	if s.RAMBytes == 0 {
		s.RAMBytes = b.peak
	}
	return metrics.BuildReport(s, b.disk)
}

// trackRAM raises the RAM high-water mark to the current footprint.
func (b *base) trackRAM() {
	var cur int64
	if b.mc != nil {
		cur += b.mc.bytesResident()
	}
	if b.filter != nil {
		cur += b.filter.SizeBytes()
	}
	if b.extraRAM != nil {
		cur += b.extraRAM()
	}
	if cur > b.peak {
		b.peak = cur
	}
}

// beginFile starts a new input file (duplicate slices do not span files).
func (b *base) beginFile() {
	b.stats.FilesTotal++
	b.dt.reset()
}

// scanned accounts size bytes cut from the input stream and hashed once.
func (b *base) scanned(size int64) {
	b.stats.InputBytes += size
	b.stats.ChunkedBytes += size
	b.stats.HashedBytes += size
}

// noteDup classifies one chunk of size bytes as duplicate (D, and L when it
// opens a new duplicate slice); noteNew one chunk as non-duplicate (N).
// Every chunk an engine deduplicates on is classified exactly once, so
// ChunksIn is counted here too.
func (b *base) noteDup(size int64) {
	b.stats.ChunksIn++
	b.stats.DupChunks++
	b.stats.DupBytes += size
	if b.dt.note(true) {
		b.stats.DupSlices++
	}
}

func (b *base) noteNew() {
	b.stats.ChunksIn++
	b.stats.NonDupChunks++
	b.dt.note(false)
}

// entryRef is the recipe reference to entry idx of m.
func entryRef(m *store.Manifest, idx int) store.FileRef {
	e := m.Entries[idx]
	return store.FileRef{Container: m.ContainerOf(e), Start: e.Start, Size: e.Size}
}

// lookup runs the duplicate query of the hook-indexed engines: locality
// cache, then bloom filter, then the on-disk hook index and the manifest
// the hook names. A missing hook is "not found"; a hook or manifest that
// exists but cannot be read is an error, never a silently lost duplicate.
func (b *base) lookup(h hashutil.Sum) (ref store.FileRef, found bool, err error) {
	if m, idx, ok := b.mc.lookup(h); ok {
		return entryRef(m, idx), true, nil
	}
	if b.filter != nil && !b.filter.Test(h) {
		return ref, false, nil
	}
	if !b.st.HookExists(h) {
		return ref, false, nil
	}
	targets, err := b.st.ReadHook(h)
	if err != nil || len(targets) == 0 {
		return ref, false, err
	}
	m, err := b.mc.load(targets[0])
	if err != nil {
		return ref, false, err
	}
	idx, ok := m.Lookup(h)
	if !ok {
		return ref, false, nil
	}
	return entryRef(m, idx), true, nil
}

// diskChunk assembles one input file's DiskChunk, manifest and recipe for
// the engines that index every stored chunk on disk (CDC, Bimodal, FBC):
// each stored chunk, whatever its granularity, gets a manifest entry and
// its own hook (Table I: hooks = N).
type diskChunk struct {
	b        *base
	name     hashutil.Sum
	manifest *store.Manifest
	data     []byte
	fm       *store.FileManifest
}

func (b *base) newDiskChunk(file string) *diskChunk {
	name := b.st.NextName()
	return &diskChunk{
		b:        b,
		name:     name,
		manifest: store.NewManifest(name, b.st.Format()),
		fm:       &store.FileManifest{File: file},
	}
}

// put deduplicates one chunk against the hook index: a reference when it is
// already stored, its bytes otherwise.
func (c *diskChunk) put(data []byte, h hashutil.Sum) error {
	ref, found, err := c.b.lookup(h)
	if err != nil {
		return err
	}
	if found {
		return c.dup(ref)
	}
	return c.add(data, h)
}

// dup records a chunk already stored at ref.
func (c *diskChunk) dup(ref store.FileRef) error {
	if err := c.fm.Append(ref); err != nil {
		return err
	}
	c.b.noteDup(ref.Size)
	return nil
}

// add appends a non-duplicate chunk to the container.
func (c *diskChunk) add(data []byte, h hashutil.Sum) error {
	start, size := int64(len(c.data)), int64(len(data))
	c.data = append(c.data, data...)
	c.manifest.Append(store.Entry{Hash: h, Start: start, Size: size, Kind: store.KindHook})
	if err := c.fm.Append(store.FileRef{Container: c.name, Start: start, Size: size}); err != nil {
		return err
	}
	c.b.noteNew()
	return nil
}

// commit writes the container, its manifest and hooks (nothing when the
// file was a complete duplicate), then the file's recipe.
func (c *diskChunk) commit() error {
	b := c.b
	if len(c.data) > 0 {
		if err := b.st.WriteDiskChunk(c.name, c.data); err != nil {
			return err
		}
		if err := b.st.CreateManifest(c.manifest); err != nil {
			return err
		}
		for _, e := range c.manifest.Entries {
			if b.st.HookKnown(e.Hash) {
				continue
			}
			if err := b.st.CreateHook(e.Hash, c.name); err != nil {
				return err
			}
			if b.filter != nil {
				b.filter.Add(e.Hash)
			}
		}
		b.stats.Files++
		b.stats.StoredDataBytes += int64(len(c.data))
		// Manifests enter the cache only via load-on-hit, mirroring each
		// original system's locality path (no free self-insertion).
		b.trackRAM()
	}
	return b.st.WriteFileManifest(c.fm)
}
