package baseline

import (
	"encoding/binary"
	"io"
	"sort"

	"mhdedup/internal/algo"
	"mhdedup/internal/chunker"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
)

// Sparse implements Sparse Indexing (Lillibridge et al.): the stream is
// divided into segments; a sparse in-RAM index maps sampled hook hashes to
// the manifests of segments that contained them; each incoming segment is
// deduplicated only against its champion manifests — the few existing
// segments sharing the most hooks. No full chunk index exists, on disk or
// in RAM; the sparse index *is* the index, which is why its RAM use
// (Table III) and its per-manifest hash re-recording (Fig 7(b)) are the
// quantities the paper charts.
type Sparse struct {
	base
	// index is the sparse index: sampled hook hash → up to
	// maxManifestsPerHook manifest names, most recent last.
	index map[hashutil.Sum][]hashutil.Sum

	// Per-file segment assembly state.
	seg      []chunker.Chunk
	segBytes int64
	fm       *store.FileManifest
	stored   bool
}

// Sparse Indexing's fixed parameters, following the paper's experimental
// setup: segments of ECS·SD·segmentFactor bytes, at most maxChampions
// champion manifests per segment and at most maxManifestsPerHook manifests
// per sparse-index entry (LRU).
const (
	segmentFactor       = 5
	maxChampions        = 10
	maxManifestsPerHook = 5
)

// NewSparse returns a Sparse deduplicator over the given disk.
func NewSparse(cfg Config, disk *simdisk.Disk) (*Sparse, error) {
	b, err := newBase(cfg, disk, 2, algo.Needs{Format: store.FormatMultiContainer, Cache: true})
	if err != nil {
		return nil, err
	}
	d := &Sparse{base: b, index: make(map[hashutil.Sum][]hashutil.Sum)}
	d.ExtraRAM = d.SparseIndexBytes
	return d, nil
}

// isHook applies the content-based sampling: a chunk hash is a hook when
// its leading 64 bits are divisible by SD.
func (d *Sparse) isHook(h hashutil.Sum) bool {
	return binary.BigEndian.Uint64(h[:8])%uint64(d.cfg.SD) == 0
}

// segmentTarget is the segment size in bytes.
func (d *Sparse) segmentTarget() int64 {
	return int64(d.cfg.ECS) * int64(d.cfg.SD) * segmentFactor
}

// PutFile deduplicates one input file segment by segment. Segments do not
// span files (files are the paper's stream boundaries for restore).
func (d *Sparse) PutFile(name string, r io.Reader) error {
	ch, err := chunker.NewCDC(r, chunker.Params{ECS: d.cfg.ECS, Poly: d.cfg.Poly})
	if err != nil {
		return err
	}
	d.beginFile()
	d.fm = &store.FileManifest{File: name}
	d.stored = false
	for {
		c, err := ch.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		d.scanned(c.Size())
		d.seg = append(d.seg, c)
		d.segBytes += c.Size()
		if d.segBytes >= d.segmentTarget() {
			if err := d.flushSegment(); err != nil {
				return err
			}
		}
	}
	if err := d.flushSegment(); err != nil {
		return err
	}
	if d.stored {
		d.Count.Files.Add(1)
	}
	fm := d.fm
	d.fm = nil
	return d.Store.WriteFileManifest(fm)
}

// flushSegment deduplicates the assembled segment against its champions
// and writes the segment's container and manifest.
func (d *Sparse) flushSegment() error {
	if len(d.seg) == 0 {
		return nil
	}
	seg := d.seg
	d.seg = nil
	d.segBytes = 0

	// Hash every chunk; collect the segment's hooks.
	hashes := make([]hashutil.Sum, len(seg))
	var hooks []hashutil.Sum
	for i, c := range seg {
		hashes[i] = hashutil.SumBytes(c.Data)
		if d.isHook(hashes[i]) {
			hooks = append(hooks, hashes[i])
		}
	}

	// Vote for candidate manifests and load the champions.
	votes := make(map[hashutil.Sum]int)
	for _, h := range hooks {
		for _, mName := range d.index[h] {
			votes[mName]++
		}
	}
	type cand struct {
		name  hashutil.Sum
		votes int
	}
	cands := make([]cand, 0, len(votes))
	for name, v := range votes {
		cands = append(cands, cand{name, v})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].votes != cands[j].votes {
			return cands[i].votes > cands[j].votes
		}
		return cands[i].name.Hex() < cands[j].name.Hex() // deterministic tie-break
	})
	if len(cands) > maxChampions {
		cands = cands[:maxChampions]
	}
	champions := make([]*store.Manifest, 0, len(cands))
	for _, c := range cands {
		m, _, err := d.Load(c.name)
		if err != nil {
			return err
		}
		champions = append(champions, m)
	}

	// Deduplicate the segment against its champions (and only them — the
	// flat cache index may hold other manifests, but sparse indexing's
	// recall is defined by the champion set).
	container := d.Store.NextName()
	manifest := store.NewManifest(container, store.FormatMultiContainer)
	var data []byte
	for i, c := range seg {
		h := hashes[i]
		var ref store.FileRef
		hit := false
		for _, m := range champions {
			if idx, ok := m.Lookup(h); ok {
				ref, hit = entryRef(m, idx), true
				break
			}
		}
		// A chunk may also repeat within the current segment.
		if !hit {
			if idx, ok := manifest.Lookup(h); ok {
				ref, hit = entryRef(manifest, idx), true
			}
		}
		if hit {
			if err := d.fm.Append(ref); err != nil {
				return err
			}
			// The manifest re-records the duplicate chunk's hash with its
			// foreign location — the locality-preserving, hash-repeating
			// behavior the paper contrasts with MHD.
			manifest.Append(store.Entry{
				Hash:      h,
				Container: ref.Container,
				Start:     ref.Start,
				Size:      ref.Size,
				Kind:      store.KindPlain,
			})
			d.noteDup(c.Size())
			continue
		}
		start := int64(len(data))
		data = append(data, c.Data...)
		manifest.Append(store.Entry{
			Hash:      h,
			Container: container,
			Start:     start,
			Size:      c.Size(),
			Kind:      store.KindPlain,
		})
		if err := d.fm.Append(store.FileRef{Container: container, Start: start, Size: c.Size()}); err != nil {
			return err
		}
		d.noteNew()
	}

	if len(data) > 0 {
		if err := d.Store.SealDiskChunk(container, data); err != nil {
			return err
		}
		d.Count.StoredDataBytes.Add(int64(len(data)))
		d.stored = true
	}
	if err := d.Store.CreateManifest(manifest); err != nil {
		return err
	}
	// Manifests enter the cache only via load-on-hit, mirroring each
	// original system's locality path (no free self-insertion).

	// Register the segment's hooks: in the sparse index (RAM) and as
	// persisted hook objects (durability; these writes are the extra hook
	// I/O §IV attributes to sparse indexing).
	for _, h := range hooks {
		targets := d.index[h]
		already := false
		for _, t := range targets {
			if t == container {
				already = true
				break
			}
		}
		if !already {
			targets = append(targets, container)
			if len(targets) > maxManifestsPerHook {
				targets = targets[len(targets)-maxManifestsPerHook:]
			}
			d.index[h] = targets
		}
		if err := d.Store.AddHookTarget(h, container, maxManifestsPerHook); err != nil {
			return err
		}
	}
	d.SampleRAM()
	return nil
}

// SparseIndexBytes returns the current RAM footprint of the sparse index —
// the Table III quantity: 20 bytes per key plus 20 per manifest pointer
// plus map overhead.
func (d *Sparse) SparseIndexBytes() int64 {
	var n int64
	for _, targets := range d.index {
		n += hashutil.Size + int64(len(targets))*hashutil.Size + 16
	}
	return n
}
