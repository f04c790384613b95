package baseline

import (
	"bytes"
	"fmt"
	"io"

	"mhdedup/internal/algo"
	"mhdedup/internal/chunker"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
)

// binInfo is one primary-index entry: the bin holding similar files'
// chunks, plus the whole-file hash that lets an identical file skip the
// bin load entirely.
type binInfo struct {
	bin      hashutil.Sum
	fileHash hashutil.Sum
}

// ExtremeBinning implements Bhagwat et al.'s scheme as the paper's §II
// describes it: each file is represented by one chunk (the minimum hash —
// Broder's theorem makes similar files likely to share it); a primary
// in-RAM index maps representative hash → bin. An incoming file whose
// representative is unknown starts a new bin; a known representative with
// a matching whole-file hash deduplicates the entire file with *zero* bin
// I/O; otherwise the single bin is loaded — one disk access per file — and
// the file deduplicates against it alone. Duplicates shared only with
// files in other bins are missed by design; that recall/IO trade is the
// scheme's signature.
type ExtremeBinning struct {
	base
	primary map[hashutil.Sum]binInfo
}

// NewExtremeBinning returns an ExtremeBinning deduplicator over the given
// disk.
func NewExtremeBinning(cfg Config, disk *simdisk.Disk) (*ExtremeBinning, error) {
	b, err := newBase(cfg, disk, 0, algo.Needs{Format: store.FormatMultiContainer})
	if err != nil {
		return nil, err
	}
	d := &ExtremeBinning{base: b, primary: make(map[hashutil.Sum]binInfo)}
	// The primary index: representative hash + bin name + file hash.
	d.ExtraRAM = func() int64 { return int64(len(d.primary)) * (3*hashutil.Size + 16) }
	return d, nil
}

// PutFile deduplicates one input file. Extreme Binning is file-at-a-time
// by design: all chunk hashes are computed first to find the
// representative, then the file is deduplicated against (at most) one bin.
func (d *ExtremeBinning) PutFile(name string, r io.Reader) error {
	d.beginFile()

	var chunks []chunker.Chunk
	var hashes []hashutil.Sum
	fileHasher := hashutil.NewHasher()
	rep := hashutil.Sum{}
	if err := d.scan(r, d.cfg.ECS, func(c chunker.Chunk) error {
		d.Count.HashedBytes.Add(c.Size()) // the whole-file hash reads it again
		h := hashutil.SumBytes(c.Data)
		fileHasher.Write(c.Data)
		chunks = append(chunks, c)
		hashes = append(hashes, h)
		if rep.IsZero() || bytes.Compare(h[:], rep[:]) < 0 {
			rep = h
		}
		return nil
	}); err != nil {
		return err
	}
	fm := &store.FileManifest{File: name}
	if len(chunks) == 0 {
		return d.Store.WriteFileManifest(fm)
	}
	fileHash := fileHasher.Sum()

	info, known := d.primary[rep]
	if known && info.fileHash == fileHash {
		// Whole-file duplicate: the bin holds every chunk of the identical
		// file. Resolving the recipe still reads it — the paper's "only one
		// disk access is needed per file", kept as the worst case — and
		// that read is a manifest load like any other.
		bin, err := d.Store.ReadManifest(info.bin)
		if err != nil {
			return err
		}
		d.Count.ManifestLoads.Add(1)
		for i, c := range chunks {
			idx, ok := bin.Lookup(hashes[i])
			if !ok {
				return fmt.Errorf("baseline: extreme binning: identical file missing chunk %d in bin", i)
			}
			if err := fm.Append(entryRef(bin, idx)); err != nil {
				return err
			}
			d.noteDup(c.Size())
		}
		d.SampleRAM()
		return d.Store.WriteFileManifest(fm)
	}

	var bin *store.Manifest
	var binName hashutil.Sum
	var err error
	if known {
		// Similar (not identical) file: load the one bin and deduplicate
		// against it; the bin grows by the file's new chunks.
		bin, err = d.Store.ReadManifest(info.bin)
		if err != nil {
			return err
		}
		binName = info.bin
		d.Count.ManifestLoads.Add(1)
	} else {
		binName = d.Store.NextName()
		bin = store.NewManifest(binName, store.FormatMultiContainer)
	}

	container := d.Store.NextName()
	var data []byte
	for i, c := range chunks {
		if idx, ok := bin.Lookup(hashes[i]); ok {
			if err := fm.Append(entryRef(bin, idx)); err != nil {
				return err
			}
			d.noteDup(c.Size())
			continue
		}
		start := int64(len(data))
		data = append(data, c.Data...)
		bin.Append(store.Entry{
			Hash:      hashes[i],
			Container: container,
			Start:     start,
			Size:      c.Size(),
		})
		if err := fm.Append(store.FileRef{Container: container, Start: start, Size: c.Size()}); err != nil {
			return err
		}
		d.noteNew()
	}
	if len(data) > 0 {
		if err := d.Store.SealDiskChunk(container, data); err != nil {
			return err
		}
		d.Count.StoredDataBytes.Add(int64(len(data)))
		d.Count.Files.Add(1)
	}
	if known {
		bin.MarkDirty()
		if err := d.Store.WriteBackManifest(bin); err != nil {
			return err
		}
	} else if err := d.Store.CreateManifest(bin); err != nil {
		return err
	}
	d.primary[rep] = binInfo{bin: binName, fileHash: fileHash}
	d.SampleRAM()
	return d.Store.WriteFileManifest(fm)
}
