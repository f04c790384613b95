package baseline

import (
	"fmt"
	"io"

	"mhdedup/internal/chunker"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/sketch"
	"mhdedup/internal/store"
)

// FBC implements frequency-based chunking (Lu, Jin & Du, MASCOTS'10) as the
// paper's §II describes it: big-chunk-first deduplication with *selective*
// re-chunking driven by chunk frequency estimated from previously processed
// data. A count-min sketch tracks small-chunk frequencies; a non-duplicate
// big chunk is re-chunked only when it contains small chunks whose
// estimated frequency reaches the threshold — popular content earns its own
// chunk boundaries, cold content stays coarse.
type FBC struct {
	base
	freq *sketch.CountMin
}

// NewFBC returns an FBC deduplicator over the given disk.
func NewFBC(cfg Config, disk *simdisk.Disk) (*FBC, error) {
	if cfg.FreqThreshold == 0 {
		return nil, fmt.Errorf("baseline: FreqThreshold must be positive")
	}
	b, err := newBase(cfg, disk, substrate{format: store.FormatBasic, minSD: 2, bloom: true, cache: true})
	if err != nil {
		return nil, err
	}
	freq, err := sketch.New(cfg.SketchRows, cfg.SketchWidth)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	d := &FBC{base: b, freq: freq}
	d.extraRAM = freq.SizeBytes
	return d, nil
}

// PutFile deduplicates one input file.
func (d *FBC) PutFile(name string, r io.Reader) error {
	big, err := chunker.NewCDC(r, chunker.Params{ECS: d.cfg.ECS * d.cfg.SD, Poly: d.cfg.Poly})
	if err != nil {
		return err
	}
	d.beginFile()
	out := d.newDiskChunk(name)
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

		d.stats.BigChunkQueries++
		ref, found, err := d.lookup(bh)
		if err != nil {
			return err
		}
		if found {
			if err := out.dup(ref); err != nil {
				return err
			}
			continue
		}

		// Estimate the small-chunk frequencies inside this big chunk and
		// feed the sketch ("frequency information ... estimated from data
		// that have been previously processed").
		smalls, err := chunker.Split(c.Data, chunker.Params{ECS: d.cfg.ECS, Poly: d.cfg.Poly})
		if err != nil {
			return err
		}
		smallHashes := make([]hashutil.Sum, len(smalls))
		rechunk := false
		for i, sc := range smalls {
			d.stats.HashedBytes += sc.Size()
			smallHashes[i] = hashutil.SumBytes(sc.Data)
			if d.freq.Estimate(smallHashes[i]) >= d.cfg.FreqThreshold {
				rechunk = true
			}
		}
		for _, sh := range smallHashes {
			d.freq.Add(sh)
		}

		if !rechunk {
			if err := out.add(c.Data, bh); err != nil {
				return err
			}
			continue
		}
		// Popular content inside: re-chunk and deduplicate the small
		// chunks individually.
		for i, sc := range smalls {
			if err := out.put(sc.Data, smallHashes[i]); err != nil {
				return err
			}
		}
	}
	return out.commit()
}
