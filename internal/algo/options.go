package algo

import (
	"cmp"
	"fmt"

	"mhdedup/internal/store"
)

// Options configures any of the nine engines; each reads the fields its
// algorithm uses and ignores the rest. The zero value is the paper's
// setting: Resolve fills every zero field in, and is the one place the
// defaults are written. ECS, TTTD and FastCDC are part of a store's cut
// contract (see dedup.Resume).
type Options struct {
	// ECS is the expected (small) chunk size in bytes; default 4096, the
	// default store contract's.
	ECS int
	// SD is MHD's sample distance, the big/small chunk ratio of Bimodal,
	// SubChunk and FBC, SparseIndexing's hook sampling rate and
	// Fingerdiff's coalescing bound; default 64. CDC and ExtremeBinning
	// ignore it.
	SD int
	// BloomBytes sizes the bloom filter; zero auto-sizes it from
	// ExpectedInputBytes at 12 bits per expected chunk plus 1 KiB, no less
	// than 64 KiB (≈1% false positives), or 1 MiB when that is unknown.
	BloomBytes int
	// ExpectedInputBytes, when known, drives bloom auto-sizing.
	ExpectedInputBytes int64
	// CacheManifests bounds the in-RAM manifest locality cache; default 64.
	CacheManifests int
	// DisableBloom turns the bloom filter off (every fresh hash then costs
	// an on-disk hook query, as in Table II's no-bloom rows).
	DisableBloom bool
	// DisableByteCompare and DisableEdgeHash switch off the corresponding
	// MHD mechanisms (ablations; other engines ignore them).
	DisableByteCompare bool
	DisableEdgeHash    bool
	// SHMPerSlice selects MHD's alternative merging strategy: flush the
	// hysteresis buffer at every duplicate-slice end so each non-duplicate
	// slice owns at least one Hook.
	SHMPerSlice bool
	// TTTD selects the two-thresholds-two-divisors chunker for MHD.
	TTTD bool
	// FastCDC selects the gear-hash chunker for MHD (faster scanning,
	// tighter size distribution; mutually exclusive with TTTD).
	FastCDC bool
	// RecipeTrees stores file recipes as deduplicated recipe trees: the
	// ref stream is content-defined into content-addressed recipe chunks
	// with a Merkle-style root, so near-identical snapshots share recipe
	// subtrees and ranged restore seeks in O(log n) recipe reads. Trees
	// carry full 64-bit offsets; the flat format refuses refs past 4 GiB.
	RecipeTrees bool
}

// Resolve returns o with every zero field set to its default, or an error
// naming the first negative one.
func (o Options) Resolve() (Options, error) {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"ECS", int64(o.ECS)},
		{"SD", int64(o.SD)},
		{"BloomBytes", int64(o.BloomBytes)},
		{"ExpectedInputBytes", o.ExpectedInputBytes},
		{"CacheManifests", int64(o.CacheManifests)},
	} {
		if f.v < 0 {
			return o, fmt.Errorf("%s must not be negative, got %d", f.name, f.v)
		}
	}
	if o.TTTD && o.FastCDC {
		return o, fmt.Errorf("TTTD and FastCDC are mutually exclusive")
	}
	o.ECS = cmp.Or(o.ECS, store.DefaultContract.ECS)
	o.SD = cmp.Or(o.SD, 64)
	o.CacheManifests = cmp.Or(o.CacheManifests, 64)
	if o.BloomBytes == 0 {
		o.BloomBytes = 1 << 20
		if o.ExpectedInputBytes > 0 {
			o.BloomBytes = max(int(o.ExpectedInputBytes/int64(o.ECS)*12/8)+1024, 1<<16)
		}
	}
	return o, nil
}
