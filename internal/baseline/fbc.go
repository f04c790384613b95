package baseline

import (
	"fmt"
	"io"

	"mhdedup/internal/algo"
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

// FBC's fixed parameters: a big chunk is re-chunked once one of its small
// chunks has an estimated frequency of freqThreshold, counted in a
// sketchRows × sketchWidth count-min sketch.
const (
	freqThreshold = 2
	sketchRows    = 4
	sketchWidth   = 1 << 16
)

// NewFBC returns an FBC deduplicator over the given disk.
func NewFBC(cfg Config, disk *simdisk.Disk) (*FBC, error) {
	b, err := newBase(cfg, disk, 2, algo.Needs{Format: store.FormatBasic, Bloom: true, Cache: true})
	if err != nil {
		return nil, err
	}
	freq, err := sketch.New(sketchRows, sketchWidth)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	d := &FBC{base: b, freq: freq}
	d.ExtraRAM = freq.SizeBytes
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

		d.Count.BigChunkQueries.Add(1)
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
			d.Count.HashedBytes.Add(sc.Size())
			smallHashes[i] = hashutil.SumBytes(sc.Data)
			if d.freq.Estimate(smallHashes[i]) >= freqThreshold {
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
