package baseline

import (
	"io"

	"mhdedup/internal/algo"
	"mhdedup/internal/chunker"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
)

// bigRecipe records how a previously seen big chunk deduplicated: the
// manifest describing it and the refs reconstructing its bytes. It is the
// in-RAM big-chunk index of this implementation (charged to RAMBytes); the
// original anchor-driven system holds the equivalent state in its anchor
// database. One entry per distinct big chunk.
type bigRecipe struct {
	manifest hashutil.Sum
	refs     []store.FileRef
}

// SubChunk implements anchor-driven sub-chunk deduplication (Romanski et
// al.): the stream is cut into big chunks; duplicate big chunks are
// eliminated whole; every non-duplicate big chunk is re-chunked into small
// chunks that deduplicate individually against recently loaded manifests,
// with the surviving small chunks coalesced into one container DiskChunk
// per big chunk. Small-chunk duplicates are only found through manifest
// locality — when no mapping is hit, duplicates inside big chunks are
// missed, which is the recall gap the paper contrasts with MHD's match
// extension.
type SubChunk struct {
	base
	bigIdx map[hashutil.Sum]bigRecipe
}

// NewSubChunk returns a SubChunk deduplicator over the given disk.
func NewSubChunk(cfg Config, disk *simdisk.Disk) (*SubChunk, error) {
	b, err := newBase(cfg, disk, 2, algo.Needs{Format: store.FormatMultiContainer, Bloom: true, Cache: true})
	if err != nil {
		return nil, err
	}
	d := &SubChunk{base: b, bigIdx: make(map[hashutil.Sum]bigRecipe)}
	d.ExtraRAM = d.recipeIndexBytes
	return d, nil
}

// PutFile deduplicates one input file.
func (d *SubChunk) PutFile(name string, r io.Reader) error {
	big, err := chunker.NewCDC(r, chunker.Params{ECS: d.cfg.ECS * d.cfg.SD, Poly: d.cfg.Poly})
	if err != nil {
		return err
	}
	d.beginFile()

	manifestName := d.Store.NextName()
	manifest := store.NewManifest(manifestName, store.FormatMultiContainer)
	fm := &store.FileManifest{File: name}
	var fileHook hashutil.Sum
	stored := false

	for {
		c, err := big.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		d.scanned(c.Size())
		bh := hashutil.SumBytes(c.Data)
		if fileHook.IsZero() {
			fileHook = bh
		}

		// Big-chunk duplicate query. The bloom filter gates the on-disk
		// hook probe (one hook per file: only first-big-chunk hashes hit);
		// the recipe index answers for all previously seen big chunks.
		d.Count.BigChunkQueries.Add(1)
		probed := d.HookExists(bh) // a charged disk query past the filter
		if rec, ok := d.bigIdx[bh]; ok {
			if probed {
				// Worst-case manifest load per duplicate slice (§IV): pull
				// the manifest the recipe points to for locality.
				if _, _, err := d.Load(rec.manifest); err != nil {
					return err
				}
			}
			for _, ref := range rec.refs {
				if err := fm.Append(ref); err != nil {
					return err
				}
			}
			d.noteDup(c.Size())
			continue
		}

		// Non-duplicate big chunk: re-chunk into small chunks, deduplicate
		// each against manifest locality only, coalesce survivors into one
		// container DiskChunk.
		smalls, err := chunker.Split(c.Data, chunker.Params{ECS: d.cfg.ECS, Poly: d.cfg.Poly})
		if err != nil {
			return err
		}
		container := d.Store.NextName()
		var data []byte
		var recipe []store.FileRef
		appendRef := func(ref store.FileRef) error {
			if err := fm.Append(ref); err != nil {
				return err
			}
			recipe = append(recipe, ref)
			return nil
		}
		for _, sc := range smalls {
			d.Count.HashedBytes.Add(sc.Size())
			sh := hashutil.SumBytes(sc.Data)
			if m, idx, ok := d.cached(sh); ok {
				if err := appendRef(entryRef(m, idx)); err != nil {
					return err
				}
				d.noteDup(sc.Size())
				continue
			}
			start := int64(len(data))
			data = append(data, sc.Data...)
			manifest.Append(store.Entry{
				Hash:      sh,
				Container: container,
				Start:     start,
				Size:      sc.Size(),
				Kind:      store.KindPlain,
			})
			if err := appendRef(store.FileRef{Container: container, Start: start, Size: sc.Size()}); err != nil {
				return err
			}
			d.noteNew()
		}
		if len(data) > 0 {
			if err := d.Store.SealDiskChunk(container, data); err != nil {
				return err
			}
			d.Count.StoredDataBytes.Add(int64(len(data)))
			stored = true
		}
		d.bigIdx[bh] = bigRecipe{manifest: manifestName, refs: recipe}
		d.FilterAdd(bh)
	}

	if stored {
		if err := d.Store.CreateManifest(manifest); err != nil {
			return err
		}
		// One hook per manifest (Table I: hooks = F), keyed by the file's
		// first big-chunk hash.
		if !fileHook.IsZero() {
			if err := d.PublishHook(fileHook, manifestName); err != nil {
				return err
			}
		}
		d.Count.Files.Add(1)
		// Manifests enter the cache only via load-on-hit, mirroring each
		// original system's locality path (no free self-insertion).
		d.SampleRAM()
	}
	return d.Store.WriteFileManifest(fm)
}

// recipeIndexBytes is the recipe index's RAM footprint: hash key + manifest
// name + refs per entry.
func (d *SubChunk) recipeIndexBytes() int64 {
	var n int64
	for _, rec := range d.bigIdx {
		n += 2*hashutil.Size + int64(len(rec.refs))*store.FileRefBytes + 16
	}
	return n
}
