package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"mhdedup/internal/algo"
	"mhdedup/internal/hashutil"
)

// The striped index and its selector live in internal/algo; their contract
// is pinned here, beside MHD, the engine whose concurrent streams share them
// (its cache index, its sparse hook index and its hook publication stripes).

// sumWithLowBits builds a Sum whose first 8 little-endian bytes encode v —
// so the expected stripe is v & (algo.NumStripes-1) by construction.
func sumWithLowBits(v uint64) hashutil.Sum {
	var h hashutil.Sum
	binary.LittleEndian.PutUint64(h[:8], v)
	return h
}

// TestStripeOf is the table-driven contract of the stripe selector: known
// inputs map to known stripes, the high bytes are ignored, and the mapping
// is pure.
func TestStripeOf(t *testing.T) {
	cases := []struct {
		name string
		v    uint64
		want int
	}{
		{"zero", 0, 0},
		{"one", 1, 1},
		{"last-stripe", algo.NumStripes - 1, algo.NumStripes - 1},
		{"wraps", algo.NumStripes, 0},
		{"wraps+1", algo.NumStripes + 1, 1},
		{"high-bits-ignored", 0xFFFF_FFFF_FFFF_FFC0, 0},
		{"mixed", 0xDEAD_BEEF_0000_002A, 0x2A},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := sumWithLowBits(tc.v)
			if got := algo.StripeOf(h); got != tc.want {
				t.Errorf("algo.StripeOf(%#x) = %d, want %d", tc.v, got, tc.want)
			}
			// Purity: same input, same stripe, every time.
			if again := algo.StripeOf(h); again != algo.StripeOf(h) {
				t.Error("stripeOf is not stable")
			}
		})
	}
	// Bytes beyond the first eight must not matter.
	a := sumWithLowBits(7)
	b := a
	for i := 8; i < len(b); i++ {
		b[i] = 0xFF
	}
	if algo.StripeOf(a) != algo.StripeOf(b) {
		t.Error("bytes past the stripe window changed the stripe")
	}
}

// TestStripeOfCoversAllStripes: real (hashed) keys must reach every stripe
// — the selector cannot strand shards, or striping would not reduce
// contention.
func TestStripeOfCoversAllStripes(t *testing.T) {
	seen := make(map[int]bool)
	for i := 0; len(seen) < algo.NumStripes; i++ {
		if i >= 64*algo.NumStripes {
			t.Fatalf("only %d/%d stripes reached after %d hashed keys", len(seen), algo.NumStripes, i)
		}
		h := hashutil.SumBytes([]byte(fmt.Sprintf("key-%d", i)))
		s := algo.StripeOf(h)
		if s < 0 || s >= algo.NumStripes {
			t.Fatalf("stripeOf out of range: %d", s)
		}
		seen[s] = true
	}
}

// TestStripedIndexBasics exercises Get/Put/PutIfAbsent/DeleteIf/Len on
// keys spread across shards.
func TestStripedIndexBasics(t *testing.T) {
	idx := algo.NewIndex()
	k1 := sumWithLowBits(5)
	k2 := sumWithLowBits(5 + algo.NumStripes) // same stripe as k1
	k3 := sumWithLowBits(6)                   // different stripe
	v1, v2 := sumWithLowBits(100), sumWithLowBits(200)

	if _, ok := idx.Get(k1); ok {
		t.Error("empty index returned a value")
	}
	idx.Put(k1, v1)
	idx.Put(k2, v1)
	idx.Put(k3, v2)
	if got, ok := idx.Get(k1); !ok || got != v1 {
		t.Errorf("get(k1) = %v,%v want %v", got, ok, v1)
	}
	if idx.Len() != 3 {
		t.Errorf("len = %d, want 3", idx.Len())
	}
	if idx.PutIfAbsent(k1, v2) {
		t.Error("putIfAbsent overwrote an existing key")
	}
	if got, _ := idx.Get(k1); got != v1 {
		t.Error("putIfAbsent changed the stored value")
	}
	if !idx.PutIfAbsent(sumWithLowBits(7), v2) {
		t.Error("putIfAbsent refused a fresh key")
	}
	// deleteIf honors the value guard.
	idx.DeleteIf(k1, v2) // wrong value: no-op
	if _, ok := idx.Get(k1); !ok {
		t.Error("deleteIf removed a mapping with a different value")
	}
	idx.DeleteIf(k1, v1)
	if _, ok := idx.Get(k1); ok {
		t.Error("deleteIf left a matching mapping behind")
	}
	if got, ok := idx.Get(k2); !ok || got != v1 {
		t.Error("DeleteIf of one key disturbed another in its stripe")
	}
}

// TestStripedIndexConcurrent hammers one index from many goroutines (run
// under -race): disjoint key ranges per goroutine plus a shared contended
// key exercising putIfAbsent's first-writer-wins guarantee.
func TestStripedIndexConcurrent(t *testing.T) {
	idx := algo.NewIndex()
	shared := hashutil.SumBytes([]byte("contended"))
	const goroutines, perG = 8, 200
	winners := make([]bool, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := hashutil.SumBytes([]byte(fmt.Sprintf("g%d-%d", g, i)))
				v := sumWithLowBits(uint64(g*perG + i))
				idx.Put(k, v)
				if got, ok := idx.Get(k); !ok || got != v {
					t.Errorf("g%d: lost own write", g)
					return
				}
				_ = idx.Len()
			}
			winners[g] = idx.PutIfAbsent(shared, sumWithLowBits(uint64(g)))
		}(g)
	}
	wg.Wait()
	var wins int
	for _, w := range winners {
		if w {
			wins++
		}
	}
	if wins != 1 {
		t.Errorf("putIfAbsent winners = %d, want exactly 1", wins)
	}
	if got, want := idx.Len(), goroutines*perG+1; got != want {
		t.Errorf("len = %d, want %d", got, want)
	}
}
