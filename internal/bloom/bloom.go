// Package bloom implements the Bloom filter (Broder & Mitzenmacher, 2002)
// used by Data Domain and by the paper's BF-MHD, Bimodal and SubChunk
// configurations to avoid disk lookups for hashes that are certainly new.
//
// The filter uses double hashing: the k probe positions for a 20-byte
// content hash are derived from two 64-bit words of the hash itself
// (g_i = h1 + i·h2), which is as good as k independent hash functions for
// Bloom filters and costs nothing on top of the SHA-1 the deduplicator has
// already computed.
package bloom

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"mhdedup/internal/hashutil"
)

// Filter is a Bloom filter over hashutil.Sum keys. The zero value is not
// usable; construct with New.
//
// Filter is safe for concurrent use. Unlike the striped hash→location
// index, the filter cannot be sharded by low hash bits without changing its
// probe layout (each key's k probes land anywhere in the bit array, and
// re-deriving them per shard would alter the false-positive pattern and
// with it the disk-access counters the paper's tables reproduce). Instead
// every word access is a lock-free atomic: Test is k atomic loads, Add is
// up to k compare-and-swap loops. The bit positions are exactly those of
// the serial filter, so a single-session run remains bit-identical to the
// pre-concurrency engine.
type Filter struct {
	bits  []uint64
	nbits uint64
	k     int
}

// Probes is the number of probe functions every engine's filter uses: the
// usual k ≈ 5 of the paper's experiments.
const Probes = 5

// New returns a filter with the given size in bytes and number of probe
// functions. The paper's experiments use a 100 MB filter with Probes.
func New(sizeBytes int, k int) (*Filter, error) {
	if sizeBytes <= 0 {
		return nil, fmt.Errorf("bloom: size must be positive, got %d", sizeBytes)
	}
	if k <= 0 || k > 32 {
		return nil, fmt.Errorf("bloom: k must be in [1,32], got %d", k)
	}
	nbits := uint64(sizeBytes) * 8
	return &Filter{
		bits:  make([]uint64, (nbits+63)/64),
		nbits: nbits,
		k:     k,
	}, nil
}

// probes derives the two double-hashing words from a Sum.
func probes(h hashutil.Sum) (uint64, uint64) {
	h1 := binary.LittleEndian.Uint64(h[0:8])
	h2 := binary.LittleEndian.Uint64(h[8:16])
	if h2 == 0 {
		h2 = 0x9E3779B97F4A7C15 // avoid a degenerate stride
	}
	return h1, h2
}

// Add inserts h into the filter. Concurrent Adds (and Adds racing Tests)
// are safe: each word is set with a compare-and-swap loop, so no set bit is
// ever lost.
func (f *Filter) Add(h hashutil.Sum) {
	h1, h2 := probes(h)
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.nbits
		word := &f.bits[pos/64]
		mask := uint64(1) << (pos % 64)
		for {
			old := atomic.LoadUint64(word)
			if old&mask != 0 || atomic.CompareAndSwapUint64(word, old, old|mask) {
				break
			}
		}
	}
}

// Test reports whether h might be in the filter. False means certainly not
// present; true means present with probability 1 − FP rate.
func (f *Filter) Test(h hashutil.Sum) bool {
	h1, h2 := probes(h)
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.nbits
		if atomic.LoadUint64(&f.bits[pos/64])&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// SizeBytes returns the filter's bit-array size in bytes (the RAM the paper
// charges to the bloom filter).
func (f *Filter) SizeBytes() int64 {
	return int64(len(f.bits) * 8)
}

// Reset clears the filter. Reset must not race with Add/Test (it is a
// maintenance operation, not a data-path one).
func (f *Filter) Reset() {
	for i := range f.bits {
		atomic.StoreUint64(&f.bits[i], 0)
	}
}
