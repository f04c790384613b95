package core

import "mhdedup/internal/metrics"

// Hot-path latency histograms, resolved once against the process-wide
// metrics.Default registry (stable pointers — see metrics.GetHistogram).
// The engine records into Default rather than a plumbed-through registry
// on purpose: every embedder (dedupd, the CLIs, bench) shares one
// engine-latency view, and the per-observation cost is four atomic adds,
// cheap enough to leave on unconditionally.
//
// All values are nanoseconds.
var (
	// hChunkNS is the ordered stage's wait for its next hashed chunk:
	// nothing for a chunk of the batch in hand, and for the first chunk
	// of a batch however long the pipeline still needs to cut and hash
	// it. Scanning and SHA-1 run ahead on other goroutines, so the sum
	// is the time dedup starved, not what chunking and hashing cost.
	hChunkNS = metrics.GetHistogram("core.chunk_ns")
	// hScanWaitNS and hHashWaitNS split that wait by the stage it was for,
	// once per batch: blocked on an empty queue (the next batch not cut
	// yet), then on the batch's digests (cut, not yet hashed).
	hScanWaitNS = metrics.GetHistogram("core.scan_wait_ns")
	hHashWaitNS = metrics.GetHistogram("core.hash_wait_ns")
	// hLookupNS is one flat cache-index lookup (hash → cached manifest).
	hLookupNS = metrics.GetHistogram("core.lookup_ns")
	// hHookProbeNS is one duplicate-detection probe on the miss path:
	// sparse-index get (SI-MHD) or bloom + on-disk hook existence check
	// plus hook read (MHD).
	hHookProbeNS = metrics.GetHistogram("core.hook_probe_ns")
	// hManifestLoadNS is one manifest fetched from disk into the cache
	// (cache hits are not recorded — they cost a map lookup).
	hManifestLoadNS = metrics.GetHistogram("core.manifest_load_ns")
)
