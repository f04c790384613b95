package baseline

import (
	"io"

	"mhdedup/internal/algo"
	"mhdedup/internal/chunker"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
)

// Bimodal implements bimodal content-defined chunking (Kruus et al.): the
// stream is first cut into big chunks (ECS·SD expected) for duplicate
// detection; non-duplicate big chunks adjacent to duplicate ones — the
// transition points — are re-chunked at small (ECS) granularity and
// deduplicated again. Every stored chunk, big or small, gets a manifest
// entry and its own hook, which is what makes Bimodal's metadata balloon
// near transition points (Table I's 2L(SD−1) terms).
type Bimodal struct {
	base
}

// NewBimodal returns a Bimodal deduplicator over the given disk. Expected
// big-chunk size is ECS·SD, matching the paper's granularity alignment
// across algorithms.
func NewBimodal(cfg Config, disk *simdisk.Disk) (*Bimodal, error) {
	b, err := newBase(cfg, disk, 2, algo.Needs{Format: store.FormatBasic, Bloom: true, Cache: true})
	if err != nil {
		return nil, err
	}
	return &Bimodal{base: b}, nil
}

// bigChunk is one classified big chunk of the current file.
type bigChunk struct {
	data []byte
	hash hashutil.Sum
	// ref is where the chunk is already stored, valid when dup is true.
	dup bool
	ref store.FileRef
}

// PutFile deduplicates one input file: big-chunk pass first, then selective
// re-chunking at transition points.
func (d *Bimodal) PutFile(name string, r io.Reader) error {
	d.beginFile()

	// Pass 1: read and classify every big chunk (one duplicate query each —
	// Table II's "Big Chunk Query Times").
	var chunks []bigChunk
	if err := d.scan(r, d.cfg.ECS*d.cfg.SD, func(c chunker.Chunk) error {
		bc := bigChunk{data: c.Data, hash: hashutil.SumBytes(c.Data)}
		d.Count.BigChunkQueries.Add(1)
		var err error
		if bc.ref, bc.dup, err = d.lookup(bc.hash); err == nil {
			chunks = append(chunks, bc)
		}
		return err
	}); err != nil {
		return err
	}

	// Pass 2: store, re-chunking non-duplicate big chunks at transition
	// points.
	out := d.newDiskChunk(name)
	for i, bc := range chunks {
		if bc.dup {
			if err := out.dup(bc.ref); err != nil {
				return err
			}
			continue
		}
		transition := (i > 0 && chunks[i-1].dup) || (i+1 < len(chunks) && chunks[i+1].dup)
		if !transition {
			if err := out.add(bc.data, bc.hash); err != nil {
				return err
			}
			continue
		}
		// Transition point: re-chunk at small granularity and deduplicate
		// the small chunks individually (both big and small hashes are
		// hooked when stored, so one query serves both).
		smalls, err := chunker.Split(bc.data, chunker.Params{ECS: d.cfg.ECS, Poly: d.cfg.Poly})
		if err != nil {
			return err
		}
		for _, sc := range smalls {
			d.Count.HashedBytes.Add(sc.Size())
			if err := out.put(sc.Data, hashutil.SumBytes(sc.Data)); err != nil {
				return err
			}
		}
	}
	return out.commit()
}
