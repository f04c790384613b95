package dedup

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"mhdedup/internal/simdisk"
)

// TestParallelVerifiedRestoreTransientFlips points the parallel verifying
// pipeline at a device whose reads flip a bit 30% of the time (the stored
// object stays intact, so re-reads can heal). The property is the same
// never-silently-wrong contract the serial path honors, now with 8
// concurrent readers racing over the faulty device: every restore either
// returns bytes identical to the original or fails with an error.
func TestParallelVerifiedRestoreTransientFlips(t *testing.T) {
	dir, files := buildSavedStore(t)
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	rng := rand.New(rand.NewSource(99))
	s.st.Disk().SetReadTransform(func(cat simdisk.Category, name string, data []byte) []byte {
		if cat != simdisk.Data || len(data) == 0 {
			return data
		}
		mu.Lock()
		flip := rng.Float64() < 0.3
		bit := rng.Intn(len(data) * 8)
		mu.Unlock()
		if !flip {
			return data
		}
		mutated := append([]byte(nil), data...)
		mutated[bit/8] ^= 1 << (bit % 8)
		return mutated
	})
	defer s.st.Disk().SetReadTransform(nil)

	healed, failed := 0, 0
	for round := 0; round < 10; round++ {
		for name, want := range files {
			var buf bytes.Buffer
			_, err := s.restoreAt(8, true, name, 0, -1, &buf)
			if err != nil {
				failed++
				continue
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("round %d: %s restored silently wrong under transient flips", round, name)
			}
			healed++
		}
	}
	if healed == 0 {
		t.Fatal("bounded-retry verification never healed a transient flip (suspicious: is the transform firing?)")
	}
	t.Logf("transient flips: %d restores healed, %d failed loudly, 0 silently wrong", healed, failed)
}

// TestParallelVerifiedRestorePersistentDamage flips bits in (and truncates)
// stored containers — damage no retry can heal — and demands the parallel
// verifying pipeline turn every affected restore into an error while files
// whose refs miss the damage still restore byte-identically.
func TestParallelVerifiedRestorePersistentDamage(t *testing.T) {
	for _, workers := range []int{2, 8} {
		dir, files := buildSavedStore(t)
		s, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}

		disk := s.st.Disk()
		names := disk.Names(simdisk.Data)
		if len(names) < 2 {
			t.Fatalf("workload produced only %d containers", len(names))
		}
		// Persistent single-bit flip in one container, truncation of another.
		if err := disk.FlipStoredBit(simdisk.Data, names[0], 12345); err != nil {
			t.Fatal(err)
		}
		if err := disk.TruncateStored(simdisk.Data, names[1], 100); err != nil {
			t.Fatal(err)
		}

		detected := 0
		for name, want := range files {
			var buf bytes.Buffer
			_, err := s.restoreAt(workers, true, name, 0, -1, &buf)
			if err != nil {
				detected++
				continue
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("workers %d: %s restored silently wrong over persistent damage", workers, name)
			}
		}
		if detected == 0 {
			t.Fatalf("workers %d: two containers damaged, yet every verified restore claimed success", workers)
		}
		t.Logf("workers %d: %d/%d restores refused over persistent damage", workers, detected, len(files))
	}
}
