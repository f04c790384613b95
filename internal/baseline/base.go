// Package baseline implements the seven algorithms MHD is compared with:
// the four of the paper's evaluation — plain CDC deduplication (the
// Data-Domain-style baseline of Table I/II's "CDC" column), Bimodal chunking
// (Kruus et al., FAST'10), SubChunk / anchor-driven sub-chunk deduplication
// (Romanski et al., SYSTOR'11) and Sparse Indexing (Lillibridge et al.,
// FAST'09) — and the three related-work schemes its survey discusses (FBC,
// Fingerdiff, Extreme Binning). With MHD and SI-MHD in internal/core that
// makes the nine engines of internal/exp's table.
//
// All seven stand on the one substrate MHD and SI-MHD stand on —
// algo.Substrate: disk, store, bloom filter, hook index, manifest cache,
// statistics, RAM high-water mark, and Disk, Finish, Report, Stats and
// Restore — plus the chunkers and manifest/hook/file-manifest formats, so
// that metadata and I/O comparisons measure algorithmic differences, not
// implementation accidents: the code that counts a manifest load or a
// RAM byte is literally the same for all nine engines. Each engine here
// embeds a base (base.go), which adds one Config, the D/N/L accounting
// and the cache → bloom → hook lookup. An engine's file supplies only
// what is its algorithm: PutFile, its private detection state, its
// manifest format and which parts of the substrate it stands on (the
// algo.Needs passed to newBase), the one RAM term it adds
// (Substrate.ExtraRAM) and where it samples RAM. Adding an engine is that
// one file plus one row in internal/exp's table.
package baseline

import (
	"fmt"

	"mhdedup/internal/algo"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/rabin"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
)

// Config parameterizes every engine of this package: the engine options
// every algorithm shares, plus the store's polynomial. An engine reads the
// fields its algorithm uses and ignores the rest; the zero Config is the
// paper's setting. SD aligns granularity across algorithms as the paper
// does: it is the big/small chunk ratio of Bimodal, SubChunk and FBC (big
// chunks are ECS·SD expected), Sparse's hook sampling rate (1/SD) and the
// longest run of contiguous non-duplicate chunks Fingerdiff coalesces into
// one stored chunk. Engines that keep no on-disk hook index (Sparse,
// Fingerdiff, ExtremeBinning) have no bloom filter, and Fingerdiff and
// ExtremeBinning no manifest cache. Every engine here cuts with Rabin.
type Config struct {
	algo.Options
	// Poly optionally overrides the Rabin polynomial (the store's record).
	Poly rabin.Poly
}

// base is what the engines of this package share beyond the substrate:
// their Config, the D/N/L accounting of one stream and the cache → bloom
// → hook lookup and per-file DiskChunk of the hook-indexed engines.
type base struct {
	*algo.Substrate
	cfg Config
	sl  algo.Slices
}

// newBase validates cfg against what the engine uses — Rabin cuts, SD at
// least minSD (zero when it ignores SD) — and mounts the substrate n asks
// for over disk. The filter, cache and sketch constructors reject their
// own out-of-range parameters.
func newBase(cfg Config, disk *simdisk.Disk, minSD int, n algo.Needs) (base, error) {
	o, err := cfg.Options.Resolve()
	if err != nil {
		return base{}, fmt.Errorf("baseline: %w", err)
	}
	cfg.Options = o
	if cfg.TTTD || cfg.FastCDC {
		return base{}, fmt.Errorf("baseline: cuts with Rabin only")
	}
	if cfg.SD < minSD {
		return base{}, fmt.Errorf("baseline: SD must be at least %d, got %d", minSD, cfg.SD)
	}
	s, err := algo.Mount(o, disk, n)
	if err != nil {
		return base{}, fmt.Errorf("baseline: %w", err)
	}
	return base{Substrate: s, cfg: cfg}, nil
}

// beginFile starts a new input file (duplicate slices do not span files).
func (b *base) beginFile() {
	b.Count.FilesTotal.Add(1)
	b.sl = algo.Slices{}
}

// scanned accounts size bytes cut from the input stream and hashed once.
func (b *base) scanned(size int64) {
	b.Count.InputBytes.Add(size)
	b.Count.ChunkedBytes.Add(size)
	b.Count.HashedBytes.Add(size)
}

// noteDup classifies one chunk of size bytes as duplicate (D, and L when it
// opens a new duplicate slice); noteNew one chunk as non-duplicate (N).
// Every chunk an engine deduplicates on is classified exactly once, so
// ChunksIn is counted here too.
func (b *base) noteDup(size int64) {
	b.Count.ChunksIn.Add(1)
	b.Classify(&b.sl, true, size)
}

func (b *base) noteNew() {
	b.Count.ChunksIn.Add(1)
	b.Classify(&b.sl, false, 0)
}

// entryRef is the recipe reference to entry idx of m.
func entryRef(m *store.Manifest, idx int) store.FileRef {
	e := m.Entries[idx]
	return store.FileRef{Container: m.ContainerOf(e), Start: e.Start, Size: e.Size}
}

// cached finds h in a manifest of the locality cache.
func (b *base) cached(h hashutil.Sum) (*store.Manifest, int, bool) {
	m, ok := b.Cached(h)
	if !ok {
		return nil, 0, false
	}
	idx, ok := m.Lookup(h)
	if !ok {
		b.Forget(h, m.Name)
	}
	return m, idx, ok
}

// lookup runs the duplicate query of the hook-indexed engines: locality
// cache, then bloom filter, then the on-disk hook index and the manifest
// the hook names. A missing hook is "not found"; a hook or manifest that
// exists but cannot be read is an error, never a silently lost duplicate.
func (b *base) lookup(h hashutil.Sum) (ref store.FileRef, found bool, err error) {
	if m, idx, ok := b.cached(h); ok {
		return entryRef(m, idx), true, nil
	}
	target, ok, err := b.ProbeHook(h)
	if err != nil || !ok {
		return ref, false, err
	}
	m, _, err := b.Load(target)
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
	name := b.Store.NextName()
	return &diskChunk{
		b:        b,
		name:     name,
		manifest: store.NewManifest(name, b.Store.Format()),
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
		if err := b.Store.SealDiskChunk(c.name, c.data); err != nil {
			return err
		}
		if err := b.Store.CreateManifest(c.manifest); err != nil {
			return err
		}
		for _, e := range c.manifest.Entries {
			if err := b.PublishHook(e.Hash, c.name); err != nil {
				return err
			}
		}
		b.Count.Files.Add(1)
		b.Count.StoredDataBytes.Add(int64(len(c.data)))
		// Manifests enter the cache only via load-on-hit, mirroring each
		// original system's locality path (no free self-insertion).
		b.SampleRAM()
	}
	return b.Store.WriteFileManifest(c.fm)
}
