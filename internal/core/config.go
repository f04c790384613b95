// Package core implements MHD — the paper's Metadata Harnessing
// Deduplication algorithm (§III): content-defined chunking with Sampling
// and Hash Merging (SHM), duplicate detection through an in-memory bloom
// filter, on-disk Hooks and an LRU cache of Manifests, Bi-Directional Match
// Extension (BME/FME) around every hit, and Hysteresis Hash Re-chunking
// (HHR) that splits a merged chunk only when it straddles duplicate and
// non-duplicate data.
package core

import (
	"fmt"

	"mhdedup/internal/chunker"
	"mhdedup/internal/rabin"
)

// Config parameterizes an MHD (BF-MHD) deduplicator.
type Config struct {
	// ECS is the expected (small) chunk size in bytes — the paper sweeps
	// 512..8192.
	ECS int
	// SD is the Sample Distance in hashes: every SD-th non-duplicate chunk
	// becomes a Hook, the SD−1 in between merge into one hash.
	SD int
	// BloomBytes sizes the in-memory bloom filter (the paper used 100 MB
	// for its 1 TB trace; scale with the workload).
	BloomBytes int
	// BloomHashes is the filter's probe count.
	BloomHashes int
	// CacheManifests is the LRU manifest cache capacity.
	CacheManifests int
	// ByteCompare enables HHR's byte-level boundary search inside merged
	// chunks (on in the paper; exposed for the ablation bench).
	ByteCompare bool
	// EdgeHash enables the EdgeHash guard that stops a duplicate slice
	// from triggering the same HHR reload twice (on in the paper; exposed
	// for the ablation bench).
	EdgeHash bool
	// UseBloom enables the bloom filter; disabled, every fresh hash costs
	// a disk hook query (Table II's "without bloom filter" rows).
	UseBloom bool
	// SparseIndex selects the SI-MHD variant §V mentions: hooks live in an
	// in-RAM index mapping hook hash → manifest (as in SparseIndexing)
	// instead of as on-disk hook objects behind a bloom filter. Duplicate
	// hook detection then costs no disk access at all, at the price of RAM
	// proportional to N/SD. UseBloom is ignored in this mode.
	SparseIndex bool
	// SHMPerSlice selects the alternative SHM strategy §III mentions:
	// the hysteresis buffer is flushed whenever a duplicate slice ends, so
	// every non-duplicate data slice of the input stream owns at least one
	// Hook. The default (false) is the paper's implementation: flush half
	// the buffer when it fills.
	SHMPerSlice bool
	// TTTD selects the two-thresholds-two-divisors chunker instead of the
	// basic Rabin chunker (both are content-defined; TTTD keeps even
	// max-forced cuts content-defined).
	TTTD bool
	// FastCDC selects the gear-hash chunker (Xia et al., ATC'16) — a
	// post-paper extension roughly 2× faster than Rabin scanning with a
	// tighter chunk-size distribution.
	FastCDC bool
	// Poly optionally overrides the Rabin polynomial.
	Poly rabin.Poly
	// RecipeTrees stores file recipes as deduplicated recipe trees (the
	// ref stream content-defined into content-addressed chunks with a
	// Merkle-style root) instead of flat FileManifest objects. Trees give
	// O(log n) ranged restore and cross-snapshot recipe dedup, and carry
	// full 64-bit offsets; the flat format refuses refs past 4 GiB.
	RecipeTrees bool
}

// DefaultConfig returns the paper-faithful configuration at library scale.
func DefaultConfig() Config {
	return Config{
		ECS:            4096,
		SD:             64,
		BloomBytes:     1 << 20,
		BloomHashes:    5,
		CacheManifests: 64,
		ByteCompare:    true,
		EdgeHash:       true,
		UseBloom:       true,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.ECS <= 0 {
		return fmt.Errorf("core: ECS must be positive, got %d", c.ECS)
	}
	if c.SD < 2 {
		return fmt.Errorf("core: SD must be at least 2, got %d", c.SD)
	}
	if c.UseBloom && c.BloomBytes <= 0 {
		return fmt.Errorf("core: BloomBytes must be positive, got %d", c.BloomBytes)
	}
	if c.UseBloom && (c.BloomHashes <= 0 || c.BloomHashes > 32) {
		return fmt.Errorf("core: BloomHashes must be in [1,32], got %d", c.BloomHashes)
	}
	if c.CacheManifests <= 0 {
		return fmt.Errorf("core: CacheManifests must be positive, got %d", c.CacheManifests)
	}
	if c.TTTD && c.FastCDC {
		return fmt.Errorf("core: TTTD and FastCDC are mutually exclusive")
	}
	return nil
}

// chunkerParams maps the configuration onto chunker parameters.
func (c Config) chunkerParams() chunker.Params {
	return chunker.Params{ECS: c.ECS, Poly: c.Poly}
}
