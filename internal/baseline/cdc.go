package baseline

import (
	"io"

	"mhdedup/internal/algo"
	"mhdedup/internal/chunker"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
)

// CDC is the plain content-defined-chunking deduplicator of the paper's
// "CDC" column: LBFS-style small chunks, a full per-chunk on-disk index
// (one hook per non-duplicate chunk), bloom filter and manifest locality
// cache as in Data Domain. It finds the most duplicates per byte scanned
// but pays metadata linear in N — the behavior Figs 7 and 8 chart.
type CDC struct {
	base
}

// NewCDC returns a CDC deduplicator over the given disk, with its bloom
// filter rebuilt from the hook names the disk holds (a mount-time directory
// scan) so new files deduplicate against everything stored.
func NewCDC(cfg Config, disk *simdisk.Disk) (*CDC, error) {
	b, err := newBase(cfg, disk, 0, algo.Needs{Format: store.FormatBasic, Bloom: true, Cache: true})
	if err != nil {
		return nil, err
	}
	return &CDC{base: b}, nil
}

// PutFile deduplicates one input file chunk by chunk.
func (d *CDC) PutFile(name string, r io.Reader) error {
	d.beginFile()
	out := d.newDiskChunk(name)
	if err := d.scan(r, d.cfg.ECS, func(c chunker.Chunk) error {
		return out.put(c.Data, hashutil.SumBytes(c.Data))
	}); err != nil {
		return err
	}
	return out.commit()
}
