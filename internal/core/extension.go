package core

import (
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
	d.resolveDup(f, hit, m.ContainerOf(e), e.Start)
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
		h.Write(pc.data)
	}
	return h.Sum()
}

// bme is Backward Match Extension: walk manifest entries before the hit,
// re-hash the tail of the pending buffer at each entry's recorded
// granularity and compare (the "new hash values calculated for the buffered
// chunk bytes before the HitChunk" of §III). The walk stops at the first
// mismatch, where HHR takes over if the mismatched entry is a merged chunk
// covering the duplicate/non-duplicate edge.
func (d *Dedup) bme(f *fileState, m *store.Manifest, hitIdx int) (shift int, err error) {
	for i := hitIdx - 1; i >= 0 && len(f.pending) > 0; i-- {
		e := m.Entries[i]
		// Gather pending chunks from the tail whose sizes sum to e.Size.
		j := len(f.pending)
		var sum int64
		for j > 0 && sum < e.Size {
			j--
			sum += int64(len(f.pending[j].data))
		}
		if sum == e.Size {
			d.stats.HashedBytes.Add(sum)
			if hashRun(f.pending[j:]) == e.Hash {
				d.consumeTailAsDup(f, j, m, e)
				continue
			}
		}
		// Mismatch: the duplicate/non-duplicate edge lies at or inside e.
		return d.hhrBackward(f, m, i)
	}
	return 0, nil
}

// consumeTailAsDup resolves pending[j:] as duplicates of entry e's region
// and removes them from the buffer.
func (d *Dedup) consumeTailAsDup(f *fileState, j int, m *store.Manifest, e store.Entry) {
	container := m.ContainerOf(e)
	off := e.Start
	for _, pc := range f.pending[j:] {
		d.resolveDup(f, pc, container, off)
		off += int64(len(pc.data))
	}
	f.pending = f.pending[:j]
}

// fme is Forward Match Extension: prefetch chunks past the hit and compare
// them, at manifest granularity, with the entries after the HitHash.
// Prefetched chunks that do not extend the duplicate region go back on the
// replay queue and re-enter the normal deduplication flow (§III).
func (d *Dedup) fme(f *fileState, m *store.Manifest, hitIdx int) error {
	var pre []pchunk
	defer func() {
		// Unconsumed prefetches precede whatever was already queued.
		if len(pre) > 0 {
			f.replay = append(append([]pchunk{}, pre...), f.replay...)
		}
	}()
	for i := hitIdx + 1; i < len(m.Entries); i++ {
		e := m.Entries[i]
		var total int64
		for _, pc := range pre {
			total += int64(len(pc.data))
		}
		for total < e.Size {
			pc, ok, err := d.nextChunk(f)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			pre = append(pre, pc)
			total += int64(len(pc.data))
		}
		// Take the prefix of pre summing exactly to e.Size.
		k := 0
		var sum int64
		for k < len(pre) && sum < e.Size {
			sum += int64(len(pre[k].data))
			k++
		}
		if sum == e.Size {
			d.stats.HashedBytes.Add(sum)
			if hashRun(pre[:k]) == e.Hash {
				container := m.ContainerOf(e)
				off := e.Start
				for _, pc := range pre[:k] {
					d.resolveDup(f, pc, container, off)
					off += int64(len(pc.data))
				}
				d.stats.FMEDupChunks.Add(int64(k))
				pre = pre[k:]
				continue
			}
		}
		// Mismatch: forward HHR may recover a duplicate prefix inside e.
		consumed, err := d.hhrForward(f, m, i, pre)
		if err != nil {
			return err
		}
		pre = pre[consumed:]
		return nil
	}
	return nil
}
