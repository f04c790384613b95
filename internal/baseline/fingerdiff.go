package baseline

import (
	"io"

	"mhdedup/internal/algo"
	"mhdedup/internal/chunker"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
)

// Fingerdiff implements Bobbarjung et al.'s scheme as the paper's §I
// characterizes it: contiguous non-duplicate chunks coalesce (up to a
// maximum) into one big chunk on disk, so the on-disk metadata is tiny —
// one manifest entry per coalesced run — while duplicate detection runs at
// small-chunk granularity against a database indexing *every* chunk. The
// database lives in RAM, which is exactly the criticism the paper levels
// ("the assumption that the database can fit into the RAM might not be
// realistic"); this implementation charges it to RAMBytes so the Summary
// table shows the trade directly.
type Fingerdiff struct {
	base
	// db is the full per-chunk index: chunk hash → location.
	db map[hashutil.Sum]store.FileRef
}

// NewFingerdiff returns a Fingerdiff deduplicator over the given disk. At
// most SD contiguous non-duplicate chunks merge into one stored big chunk
// (the paper aligns the coalescing bound with SD).
func NewFingerdiff(cfg Config, disk *simdisk.Disk) (*Fingerdiff, error) {
	b, err := newBase(cfg, disk, 1, algo.Needs{Format: store.FormatBasic})
	if err != nil {
		return nil, err
	}
	d := &Fingerdiff{base: b, db: make(map[hashutil.Sum]store.FileRef)}
	// The full chunk database: hash key + FileRef per entry.
	d.ExtraRAM = func() int64 { return int64(len(d.db)) * (hashutil.Size + store.FileRefBytes + 16) }
	return d, nil
}

// PutFile deduplicates one input file.
func (d *Fingerdiff) PutFile(name string, r io.Reader) error {
	ch, err := chunker.NewCDC(r, chunker.Params{ECS: d.cfg.ECS, Poly: d.cfg.Poly})
	if err != nil {
		return err
	}
	d.beginFile()
	chunkName := d.Store.NextName()
	manifest := store.NewManifest(chunkName, store.FormatBasic)
	var data []byte
	fm := &store.FileManifest{File: name}

	// run accumulates the current contiguous non-duplicate chunk run.
	var run []chunker.Chunk
	var runHashes []hashutil.Sum
	flushRun := func() error {
		if len(run) == 0 {
			return nil
		}
		start := int64(len(data))
		h := hashutil.NewHasher()
		for i, c := range run {
			// The database indexes every small chunk inside the big one.
			d.db[runHashes[i]] = store.FileRef{
				Container: chunkName,
				Start:     int64(len(data)),
				Size:      c.Size(),
			}
			data = append(data, c.Data...)
			h.Write(c.Data)
		}
		size := int64(len(data)) - start
		d.Count.HashedBytes.Add(size)
		manifest.Append(store.Entry{Hash: h.Sum(), Start: start, Size: size})
		if err := fm.Append(store.FileRef{Container: chunkName, Start: start, Size: size}); err != nil {
			return err
		}
		run, runHashes = run[:0], runHashes[:0]
		return nil
	}

	for {
		c, err := ch.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		d.scanned(c.Size())
		h := hashutil.SumBytes(c.Data)
		if ref, ok := d.db[h]; ok {
			if err := flushRun(); err != nil {
				return err
			}
			if err := fm.Append(ref); err != nil {
				return err
			}
			d.noteDup(c.Size())
			continue
		}
		run = append(run, c)
		runHashes = append(runHashes, h)
		d.noteNew()
		if len(run) >= d.cfg.SD {
			if err := flushRun(); err != nil {
				return err
			}
		}
	}
	if err := flushRun(); err != nil {
		return err
	}

	if len(data) > 0 {
		if err := d.Store.SealDiskChunk(chunkName, data); err != nil {
			return err
		}
		if err := d.Store.CreateManifest(manifest); err != nil {
			return err
		}
		d.Count.Files.Add(1)
		d.Count.StoredDataBytes.Add(int64(len(data)))
		d.SampleRAM()
	}
	return d.Store.WriteFileManifest(fm)
}
