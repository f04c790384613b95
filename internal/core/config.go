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

	"mhdedup/internal/algo"
	"mhdedup/internal/chunker"
	"mhdedup/internal/rabin"
)

// Config parameterizes an MHD (BF-MHD) deduplicator: the engine options
// every algorithm shares, plus what only a store or SI-MHD sets. The zero
// Config is the paper's setting.
type Config struct {
	algo.Options
	// Poly optionally overrides the Rabin polynomial (the store's record).
	Poly rabin.Poly
	// SparseIndex selects the SI-MHD variant §V mentions: hooks live in an
	// in-RAM index mapping hook hash → manifest (as in SparseIndexing)
	// instead of as on-disk hook objects behind a bloom filter. Duplicate
	// hook detection then costs no disk access at all, at the price of RAM
	// proportional to N/SD. DisableBloom is moot in this mode.
	SparseIndex bool
}

// resolve fills in the defaults and refuses what MHD cannot run with.
func (c Config) resolve() (Config, error) {
	o, err := c.Options.Resolve()
	if err != nil {
		return c, fmt.Errorf("core: %w", err)
	}
	if o.SD < 2 {
		return c, fmt.Errorf("core: SD must be at least 2, got %d", o.SD)
	}
	c.Options = o
	return c, nil
}

// chunkerParams maps the configuration onto chunker parameters.
func (c Config) chunkerParams() chunker.Params {
	return chunker.Params{ECS: c.ECS, Poly: c.Poly}
}
