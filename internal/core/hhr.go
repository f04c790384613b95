package core

import (
	"bytes"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/store"
)

// Hysteresis Hash Re-chunking (§III, Fig 6). When match extension stops at
// a merged manifest entry — a single hash covering what were several chunks
// — the duplicate/non-duplicate boundary may lie *inside* that entry. The
// merged chunk's bytes are reloaded from disk and byte-compared against the
// buffered (BME) or prefetched (FME) chunks: the matched region is
// deduplicated, and the entry is spliced into at most three new entries —
// the unmatched remainder (still merged, so a later slice can split it
// again), an EdgeHash over the boundary block (a plain entry that stops the
// same duplicate slice from triggering an identical reload next time), and
// the now-shared region.
//
// Only KindMerged entries are ever reloaded: hooks must survive verbatim
// (they are on-disk index entry points) and plain entries are already at
// final granularity — that restriction is the hysteresis that bounds HHR's
// disk cost (Fig 10(b)).

// minInt64 avoids importing a dependency for two-value min on int64.
func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// hhrSplit performs the splice shared by both directions: entry i of m
// becomes [remainder r | edge b | shared s] in the given byte order
// (backward: remainder first; forward: shared first). Offsets are assigned
// from e.Start across the pieces in order. Returns the new entries.
func (d *Dedup) hhrSplit(m *store.Manifest, i int, old []byte, sizes [3]int64, kinds [3]store.EntryKind) ([]store.Entry, error) {
	e := m.Entries[i]
	var pieces []store.Entry
	off := e.Start
	var consumed int64
	for p := 0; p < 3; p++ {
		n := sizes[p]
		if n <= 0 {
			continue
		}
		pieces = append(pieces, store.Entry{
			Hash:  hashutil.SumBytes(old[consumed : consumed+n]),
			Start: off,
			Size:  n,
			Kind:  kinds[p],
		})
		off += n
		consumed += n
	}
	d.stats.HashedBytes.Add(consumed)
	wasClean := !m.Dirty()
	if err := m.Splice(i, pieces...); err != nil {
		return nil, err
	}
	d.indexEntries(m, pieces)
	d.stats.HHROps.Add(1)
	if wasClean {
		// The write-back this dirtying forces (at eviction or Finish) is
		// charged to HHR, per the paper's "at most three disk accesses per
		// duplicate slice" accounting.
		d.stats.HHRDiskAccesses.Add(1)
	}
	return pieces, nil
}

// hhrBackward handles a BME mismatch at entry i. It reloads the merged
// chunk, byte-compares its suffix against the tail of the pending buffer
// (whole chunks only — the buffer's chunk boundaries are the paper's
// comparison grid, cf. Chunk N3 in Fig 6), consumes the matched tail as
// duplicates and splices the entry. It returns how many extra entries the
// splice inserted before the hit index.
func (d *Dedup) hhrBackward(f *fileState, m *store.Manifest, i int) (shift int, err error) {
	e := m.Entries[i]
	if !d.cfg.ByteCompare || e.Kind != store.KindMerged {
		return 0, nil
	}
	old, err := d.st.ReadDiskChunkRange(m.ContainerOf(e), e.Start, e.Size)
	if err != nil {
		return 0, err
	}
	d.stats.HHRDiskAccesses.Add(1)

	// Longest suffix of whole pending chunks matching old's suffix.
	var s int64
	k := len(f.pending)
	for k > 0 {
		c := f.pending[k-1].data
		n := int64(len(c))
		if s+n > e.Size || !bytes.Equal(c, old[e.Size-s-n:e.Size-s]) {
			break
		}
		s += n
		k--
	}
	var b int64
	if d.cfg.EdgeHash && s < e.Size && k > 0 {
		// Boundary block sized like the first mismatching buffered chunk
		// (the paper's "EdgeHash ... with the same size of Chunk N3").
		b = minInt64(int64(len(f.pending[k-1].data)), e.Size-s)
	}
	if s == 0 && b == 0 {
		return 0, nil
	}
	if s > 0 {
		// Consume the matched tail as duplicates of old's suffix region.
		container := m.ContainerOf(e)
		off := e.Start + (e.Size - s)
		for _, pc := range f.pending[k:] {
			d.resolveDup(f, pc, container, off)
			off += int64(len(pc.data))
		}
		f.pending = f.pending[:k]
	}
	r := e.Size - s - b
	pieces, err := d.hhrSplit(m, i, old,
		[3]int64{r, b, s},
		[3]store.EntryKind{store.KindMerged, store.KindPlain, store.KindPlain})
	if err != nil {
		return 0, err
	}
	return len(pieces) - 1, nil
}

// hhrForward handles an FME mismatch at entry i: reload, byte-compare old's
// prefix against the prefetched chunks, consume the matched prefix as
// duplicates, splice [shared s | edge b | remainder r]. Returns how many
// prefetched chunks were consumed.
func (d *Dedup) hhrForward(f *fileState, m *store.Manifest, i int, pre []pchunk) (consumed int, err error) {
	e := m.Entries[i]
	if !d.cfg.ByteCompare || e.Kind != store.KindMerged {
		return 0, nil
	}
	old, err := d.st.ReadDiskChunkRange(m.ContainerOf(e), e.Start, e.Size)
	if err != nil {
		return 0, err
	}
	d.stats.HHRDiskAccesses.Add(1)

	var s int64
	k := 0
	for k < len(pre) {
		c := pre[k].data
		n := int64(len(c))
		if s+n > e.Size || !bytes.Equal(c, old[s:s+n]) {
			break
		}
		s += n
		k++
	}
	var b int64
	if d.cfg.EdgeHash && s < e.Size && k < len(pre) {
		b = minInt64(int64(len(pre[k].data)), e.Size-s)
	}
	if s == 0 && b == 0 {
		return 0, nil
	}
	if s > 0 {
		container := m.ContainerOf(e)
		off := e.Start
		for _, pc := range pre[:k] {
			d.resolveDup(f, pc, container, off)
			off += int64(len(pc.data))
		}
		d.stats.FMEDupChunks.Add(int64(k))
	}
	r := e.Size - s - b
	if _, err := d.hhrSplit(m, i, old,
		[3]int64{s, b, r},
		[3]store.EntryKind{store.KindPlain, store.KindPlain, store.KindMerged}); err != nil {
		return 0, err
	}
	return k, nil
}
