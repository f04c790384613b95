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

// hhrSplit splices entry i of m into [shared s | edge b | remainder r], in
// reverse order backward, where the shared region is old's suffix and the
// chunks of shared matched it, and returns how many entries it added. Only
// the remainder stays merged. Only the edge (sized like the very next
// chunk, so hashed at once) and a one-chunk shared region (the chunk's
// digest) are named here, and indexed once m is unlocked; the other pieces
// stay unnamed, as views of old, until the file's next settle (DESIGN §7).
func (d *Dedup) hhrSplit(f *fileState, m *store.Manifest, i int, old []byte, shared []pchunk, s, b int64, back bool) (added int, err error) {
	e := m.Entries[i]
	sizes := [3]int64{s, b, e.Size - s - b}
	kinds := [3]store.EntryKind{store.KindPlain, store.KindPlain, store.KindMerged}
	if back {
		sizes[0], sizes[2], kinds[0], kinds[2] = sizes[2], sizes[0], kinds[2], kinds[0]
	}
	var pieces []store.Entry
	var off int64
	for p, n := range sizes {
		if n > 0 {
			pe := store.Entry{Start: e.Start + off, Size: n, Kind: kinds[p]}
			if p == 1 {
				pe.Hash = hashutil.SumBytes(old[off : off+n])
			} else if pe.Kind == store.KindPlain && len(shared) == 1 {
				pe.Hash = shared[0].hash
			}
			pieces = append(pieces, pe)
			off += n
		}
	}
	d.Count.HashedBytes.Add(off)
	wasClean := !m.Dirty()
	if err := m.Splice(i, pieces...); err != nil {
		return 0, err
	}
	for _, pe := range pieces {
		if !pe.Hash.IsZero() {
			f.eager = append(f.eager, pe)
			continue
		}
		// Left unnamed with its bytes, and queued; a shared region is the
		// run shared matched, so its run fact comes with it.
		n, data := name{m: m, start: pe.Start, size: pe.Size}, old[pe.Start-e.Start:][:pe.Size]
		if pe.Kind == store.KindPlain {
			n.fact = runKey(shared)
		}
		m.Defer(pe.Start, data)
		if f.sizes == nil {
			f.sizes = make(map[int64]bool)
		}
		f.sizes[pe.Size] = true
		cHHRNamedBytes.Add(pe.Size)
		f.queue([][]byte{data}, n)
	}
	d.Count.HHROps.Add(1)
	if wasClean {
		// The write-back this dirtying forces (at eviction or Finish) is
		// charged to HHR, per the paper's "at most three disk accesses per
		// duplicate slice" accounting.
		d.Count.HHRDiskAccesses.Add(1)
	}
	return len(pieces) - 1, nil
}

// hhrBackward handles a BME mismatch at entry i: old's suffix against the
// pending buffer's tail, which leaves the buffer as far as it matched. It
// returns how many entries the splice inserted before the hit index.
func (d *Dedup) hhrBackward(f *fileState, m *store.Manifest, i int) (shift int, err error) {
	k, shift, err := d.hhr(f, m, i, f.pending, true)
	f.pending = f.pending[:len(f.pending)-k]
	return shift, err
}

// hhrForward handles an FME mismatch at entry i: old's prefix against the
// prefetched chunks. It returns how many of them matched.
func (d *Dedup) hhrForward(f *fileState, m *store.Manifest, i int, pre []pchunk) (consumed int, err error) {
	consumed, _, err = d.hhr(f, m, i, pre, false)
	return consumed, err
}

// hhr reloads merged entry i (one disk access; joined only if it spans two
// runs) and matches whole chunks of run against it (cf. Chunk N3 in Fig 6):
// backward old's suffix against run's tail, forward old's prefix against its
// head. It returns how many chunks matched, and how many entries it added.
func (d *Dedup) hhr(f *fileState, m *store.Manifest, i int, run []pchunk, back bool) (matched, added int, err error) {
	e := m.Entries[i]
	if d.cfg.DisableByteCompare || e.Kind != store.KindMerged {
		return 0, 0, nil
	}
	runs, err := d.Store.ReadDiskChunkRange(m.ContainerOf(e), e.Start, e.Size)
	if err != nil {
		return 0, 0, err
	}
	d.Count.HHRDiskAccesses.Add(1)
	old := runs.Bytes()
	k, s := 0, int64(0)
	for ; k < len(run); k++ {
		c := edge(run, k, back).Data
		n, lo := int64(len(c)), s
		if back {
			lo = e.Size - s - n
		}
		if s+n > e.Size || !bytes.Equal(c, old[lo:lo+n]) {
			break
		}
		s += n
	}
	var b int64
	if !d.cfg.DisableEdgeHash && s < e.Size && k < len(run) {
		// Boundary block sized like the first mismatching buffered chunk
		// (the paper's "EdgeHash ... with the same size of Chunk N3").
		b = min(edge(run, k, back).Size(), e.Size-s)
	}
	if s == 0 && b == 0 {
		return 0, 0, nil
	}
	shared, start := run[:k], e.Start
	if back {
		shared, start = run[len(run)-k:], e.Start+e.Size-s
	} else {
		d.Count.FMEDupChunks.Add(int64(k))
	}
	d.resolve(f, shared, true, m.ContainerOf(e), start)
	added, err = d.hhrSplit(f, m, i, old, shared, s, b, back)
	return k, added, err
}
