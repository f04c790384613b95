package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// randomFiles returns n files of size bytes of seeded random data.
func randomFiles(seed int64, n, size int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	files := make([][]byte, n)
	for i := range files {
		files[i] = make([]byte, size)
		rng.Read(files[i])
	}
	return files
}

// putAll ingests files in order under names prefix/i.
func putAll(t *testing.T, d *Dedup, prefix string, files [][]byte) {
	t.Helper()
	for i, data := range files {
		if err := d.PutFile(fmt.Sprintf("%s/%d", prefix, i), bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFreshIngestCopiesOnce: a fresh byte is copied once on its way into a
// container — by the reader, into the chunker's slab, which the container
// then keeps — so a fresh ingest allocates little more than its input. One
// more copy of every new byte anywhere on the path reads ≈ 2.
func TestFreshIngestCopiesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 64 MiB")
	}
	files := randomFiles(1, 4, 16<<20)
	d, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	putAll(t, d, "fresh", files)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	in := d.Stats().InputBytes
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(in)
	t.Logf("%.3f bytes allocated per ingested byte (%d bytes in)", perByte, in)
	if perByte > 1.25 {
		t.Fatalf("fresh ingest allocated %.3f bytes per ingested byte, want at most 1.25", perByte)
	}
	runtime.KeepAlive(files)
}

// TestDuplicateGenerationPinsLittle: containers keep the slabs their chunks
// were read into only where they store most of them. A second generation
// that is mostly duplicate reads a slab's worth of bytes per slab but
// stores a sliver of each; kept as views, those slivers would pin every
// slab it read, so they are copied and the live heap grows by little more
// than what the generation stores.
func TestDuplicateGenerationPinsLittle(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 64 MiB")
	}
	gen1 := randomFiles(2, 2, 16<<20)
	gen2 := make([][]byte, len(gen1))
	rng := rand.New(rand.NewSource(3))
	for i, data := range gen1 {
		gen2[i] = bytes.Clone(data)
		for off := 0; off+8<<10 <= len(data); off += 1 << 20 {
			rng.Read(gen2[i][off : off+8<<10]) // an 8 KiB edit per MiB
		}
	}
	d, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	putAll(t, d, "gen1", gen1)
	before, stored := heap(), d.Stats().StoredDataBytes
	putAll(t, d, "gen2", gen2)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	grown, stored := int64(heap())-int64(before), d.Stats().StoredDataBytes-stored
	t.Logf("second generation stored %d bytes, heap grew %d", stored, grown)
	if limit := 2*stored + 4<<20; grown > limit {
		t.Fatalf("a mostly duplicate generation storing %d bytes grew the live heap by %d, want at most %d",
			stored, grown, limit)
	}
	runtime.KeepAlive(gen1)
	runtime.KeepAlive(gen2)
}
