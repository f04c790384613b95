package core

import "mhdedup/internal/metrics"

// Hot-path latency histograms in nanoseconds, on metrics.Default so that
// every embedder shares one engine-latency view; an observation is four
// atomic adds, cheap enough to leave on.
var (
	// hChunkNS is the ordered stage's wait for its next hashed chunks,
	// once per batch edge (the chunks of the batch in hand cost no wait),
	// or per run a PutChunks caller's pull returned. Scanning and SHA-1
	// run ahead on other goroutines, so the sum is the time dedup
	// starved, not what chunking and hashing cost.
	hChunkNS = metrics.GetHistogram("core.chunk_ns")
	// hScanWaitNS and hHashWaitNS split a batch edge's wait by the stage
	// it was for: blocked on an empty queue (the next batch not cut yet),
	// then on the batch's digests (cut, not yet hashed).
	hScanWaitNS = metrics.GetHistogram("core.scan_wait_ns")
	hHashWaitNS = metrics.GetHistogram("core.hash_wait_ns")
	// hLookupNS is one flat cache-index lookup, sampled (see sampler).
	hLookupNS = metrics.GetHistogram("core.lookup_ns")
	// hHookProbeNS is one duplicate-detection probe on the miss path:
	// sparse-index get (SI-MHD) or bloom + on-disk hook existence check
	// plus hook read (MHD); sampled like hLookupNS.
	hHookProbeNS = metrics.GetHistogram("core.hook_probe_ns")
	// hManifestLoadNS is one manifest fetched from disk into the cache
	// (cache hits are not recorded — they cost a map lookup).
	hManifestLoadNS = metrics.GetHistogram("core.manifest_load_ns")

	// Match extension's counters: compares of a multi-chunk run that a
	// learned fact decided, and the bytes BME/FME did feed to SHA-1
	// (Stats.HashedBytes counts the paper's re-hash instead).
	cExtendFactHits      = metrics.Default.Counter("core.extend.fact_hits")
	cExtendRehashedBytes = metrics.Default.Counter("core.extend.rehashed_bytes")

	// HHR's counters: the piece bytes queued to be hashed at a settle, and
	// the BME/FME compares decided by bytes against a piece not named yet.
	cHHRNamedBytes   = metrics.Default.Counter("core.hhr.named_bytes")
	cHHRByteCompares = metrics.Default.Counter("core.hhr.byte_compares")
)
