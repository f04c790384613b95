package metrics

import "sync/atomic"

// Atomic is the concurrency-safe counterpart of Stats: one atomic.Int64 per
// hot counter, updated in place by N concurrent ingest sessions and
// snapshotted into a plain Stats for reporting.
//
// Every Stats field is a pure sum (bytes, chunk counts, slice counts), so
// per-session accounting folds into the global totals with plain atomic
// adds and the result is exact — independent of interleaving — which is
// what lets the concurrency stress test assert that an 8-session run and a
// serial run agree on InputBytes, ChunksIn and StoredDataBytes. A
// single-session run performs the same adds in the same order as the old
// non-atomic fields did, so serial results are bit-identical.
type Atomic struct {
	InputBytes      atomic.Int64
	FilesTotal      atomic.Int64
	Files           atomic.Int64
	ChunksIn        atomic.Int64
	DupChunks       atomic.Int64
	NonDupChunks    atomic.Int64
	DupBytes        atomic.Int64
	DupSlices       atomic.Int64
	StoredDataBytes atomic.Int64
	ChunkedBytes    atomic.Int64
	HashedBytes     atomic.Int64
	RAMBytes        atomic.Int64
	HHROps          atomic.Int64
	HHRDiskAccesses atomic.Int64
	ManifestLoads   atomic.Int64
	FMEDupChunks    atomic.Int64
	BigChunkQueries atomic.Int64
}

// Snapshot returns a plain Stats with the current counter values. Taken
// while sessions are still running it is a consistent-enough progress view
// (each field individually exact); taken after all sessions finished it is
// the exact run total.
func (a *Atomic) Snapshot() Stats {
	return Stats{
		InputBytes:      a.InputBytes.Load(),
		FilesTotal:      a.FilesTotal.Load(),
		Files:           a.Files.Load(),
		ChunksIn:        a.ChunksIn.Load(),
		DupChunks:       a.DupChunks.Load(),
		NonDupChunks:    a.NonDupChunks.Load(),
		DupBytes:        a.DupBytes.Load(),
		DupSlices:       a.DupSlices.Load(),
		StoredDataBytes: a.StoredDataBytes.Load(),
		ChunkedBytes:    a.ChunkedBytes.Load(),
		HashedBytes:     a.HashedBytes.Load(),
		RAMBytes:        a.RAMBytes.Load(),
		HHROps:          a.HHROps.Load(),
		HHRDiskAccesses: a.HHRDiskAccesses.Load(),
		ManifestLoads:   a.ManifestLoads.Load(),
		FMEDupChunks:    a.FMEDupChunks.Load(),
		BigChunkQueries: a.BigChunkQueries.Load(),
	}
}

// MaxInt64 atomically raises *v to x if x is greater (a compare-and-swap
// max, used for peak-RAM tracking under concurrency).
func MaxInt64(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x <= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}
