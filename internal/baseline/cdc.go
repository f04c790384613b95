package baseline

import (
	"fmt"
	"io"

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

// NewCDC returns a CDC deduplicator over the given disk.
func NewCDC(cfg Config, disk *simdisk.Disk) (*CDC, error) {
	b, err := newBase(cfg, disk, substrate{format: store.FormatBasic, bloom: true, cache: true})
	if err != nil {
		return nil, err
	}
	return &CDC{base: b}, nil
}

// PutFile deduplicates one input file chunk by chunk.
func (d *CDC) PutFile(name string, r io.Reader) error {
	ch, err := chunker.NewCDC(r, chunker.Params{ECS: d.cfg.ECS, Poly: d.cfg.Poly})
	if err != nil {
		return err
	}
	d.beginFile()
	out := d.newDiskChunk(name)
	for {
		c, err := ch.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		d.scanned(c.Size())
		if err := out.put(c.Data, hashutil.SumBytes(c.Data)); err != nil {
			return err
		}
	}
	return out.commit()
}

// ResumeCDC returns a CDC deduplicator over an existing deduplicated disk:
// the bloom filter is rebuilt from the on-disk hook names (a mount-time
// directory scan) so new files deduplicate against everything already
// stored. Statistics start fresh for the session. Over an empty disk it is
// NewCDC.
func ResumeCDC(cfg Config, disk *simdisk.Disk) (*CDC, error) {
	d, err := NewCDC(cfg, disk)
	if err != nil {
		return nil, err
	}
	if d.filter != nil {
		for _, name := range disk.Names(simdisk.Hook) {
			h, err := hashutil.ParseHex(name)
			if err != nil {
				return nil, fmt.Errorf("baseline: resume: malformed hook name %q: %w", name, err)
			}
			d.filter.Add(h)
		}
	}
	return d, nil
}
