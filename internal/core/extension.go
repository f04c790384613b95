package core

import (
	"bytes"
	"slices"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/store"
)

// extendMatch handles a confirmed duplicate hit (Fig 4 → Fig 6): the
// HitChunk itself is resolved against the manifest entry, then the match is
// extended backwards over the hysteresis buffer (BME) and forwards over
// prefetched chunks (FME), re-chunking merged entries that straddle the
// duplicate/non-duplicate boundary (HHR).
func (d *Dedup) extendMatch(f *fileState, m *store.Manifest, hitIdx int, hit pchunk) error {
	e := m.Entries[hitIdx]
	d.resolve(f, []pchunk{hit}, true, m.ContainerOf(e), e.Start)
	// A backward HHR splice replaces one entry before the hit with several,
	// shifting the hit's index; bme reports the shift.
	shift, err := d.bme(f, m, hitIdx)
	if err != nil {
		return err
	}
	if d.cfg.SHMPerSlice && len(f.pending) > 0 {
		// Alternative SHM strategy (§III): the surviving buffered chunks
		// form a complete non-duplicate slice — flush it now so the slice
		// owns at least one Hook.
		d.flushPending(f, len(f.pending))
	}
	return d.fme(f, m, hitIdx+shift)
}

// hashRun digests the concatenated bytes of a run of chunks.
func hashRun(run []pchunk) hashutil.Sum {
	h := hashutil.NewHasher()
	for _, pc := range run {
		h.Write(pc.Data)
	}
	return h.Sum()
}

// runMatches reports whether the concatenated bytes of run, e.Size of them,
// hash to e's hash h: every BME/FME comparison goes through it, m locked.
// HashedBytes counts the paper's re-hash of the bytes (Fig 8's model), but
// the bytes are hashed only when what is already known cannot decide. An
// entry an HHR split left unnamed is compared by its bytes. A one-chunk
// run's digest is its bytes' hash (the digest contract of
// PutChunksContext). A longer run is named by K, the SHA-1 of its chunks'
// digests: if m learned that a run named K hashed to h, this run holds the
// same bytes, under the SHA-1 assumption the chunk index rests on.
// Otherwise the bytes are hashed, and a match teaches m the fact h → K.
func (d *Dedup) runMatches(m *store.Manifest, run []pchunk, e store.Entry) bool {
	d.Count.HashedBytes.Add(e.Size) // the callers' run is e.Size bytes
	if old := m.Unnamed(e); old != nil {
		cHHRByteCompares.Add(1)
		for _, pc := range run {
			if !bytes.Equal(pc.Data, old[:len(pc.Data)]) {
				return false
			}
			old = old[len(pc.Data):]
		}
		return true
	}
	if len(run) == 1 {
		return run[0].hash == e.Hash
	}
	k := runKey(run)
	if m.Fact(e.Hash) == k {
		cExtendFactHits.Add(1)
		return true
	}
	cExtendRehashedBytes.Add(e.Size)
	if hashRun(run) != e.Hash {
		return false
	}
	m.Learn(e.Hash, k)
	return true
}

// runKey returns K, the SHA-1 of run's chunk digests.
func runKey(run []pchunk) hashutil.Sum {
	names := hashutil.NewHasher()
	for i := range run {
		names.Write(run[i].hash[:])
	}
	return names.Sum()
}

// edge returns run's k-th chunk from its head, or from its tail if back.
func edge(run []pchunk, k int, back bool) *pchunk {
	if back {
		return &run[len(run)-1-k]
	}
	return &run[k]
}

// span counts the chunks from run's head (from its tail if back) it takes
// to reach size bytes, and what they sum to: exactly size when they can
// stand for an entry of that size, less when run ran out first.
func span(run []pchunk, size int64, back bool) (n int, sum int64) {
	for ; n < len(run) && sum < size; n++ {
		sum += edge(run, n, back).Size()
	}
	return n, sum
}

// bme is Backward Match Extension: walk manifest entries before the hit,
// compare the tail of the pending buffer at each entry's recorded
// granularity (the "new hash values calculated for the buffered chunk
// bytes before the HitChunk" of §III). The walk stops at the first
// mismatch, where HHR takes over if the mismatched entry is a merged chunk
// covering the duplicate/non-duplicate edge.
func (d *Dedup) bme(f *fileState, m *store.Manifest, hitIdx int) (shift int, err error) {
	for i := hitIdx - 1; i >= 0 && len(f.pending) > 0; i-- {
		e := m.Entries[i]
		n, sum := span(f.pending, e.Size, true)
		j := len(f.pending) - n
		if sum != e.Size || !d.runMatches(m, f.pending[j:], e) {
			// Mismatch: the duplicate/non-duplicate edge lies at or inside e.
			return d.hhrBackward(f, m, i)
		}
		d.resolve(f, f.pending[j:], true, m.ContainerOf(e), e.Start)
		f.pending = f.pending[:j]
	}
	return 0, nil
}

// fme is Forward Match Extension: prefetch chunks past the hit and compare
// them, at manifest granularity, with the entries after the HitHash.
// Prefetched chunks that do not extend the duplicate region go back on the
// replay queue and re-enter the normal deduplication flow (§III).
func (d *Dedup) fme(f *fileState, m *store.Manifest, hitIdx int) error {
	var pre []pchunk
	defer func() { f.replay = slices.Concat(pre, f.replay) }() // unconsumed prefetches go first
	for i := hitIdx + 1; i < len(m.Entries); i++ {
		e := m.Entries[i]
		k, sum := span(pre, e.Size, false)
		for sum < e.Size { // prefetch until pre covers e
			pc, ok, err := d.nextChunk(f)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			pre = append(pre, pc)
			k, sum = k+1, sum+pc.Size()
		}
		if sum != e.Size || !d.runMatches(m, pre[:k], e) {
			// Mismatch: forward HHR may recover a duplicate prefix inside e.
			consumed, err := d.hhrForward(f, m, i, pre)
			pre = pre[consumed:]
			return err
		}
		d.resolve(f, pre[:k], true, m.ContainerOf(e), e.Start)
		d.Count.FMEDupChunks.Add(int64(k))
		pre = pre[k:]
	}
	return nil
}
