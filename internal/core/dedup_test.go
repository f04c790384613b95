package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
)

func testConfig() Config {
	cfg := Config{}
	cfg.ECS = 512
	cfg.SD = 4
	cfg.BloomBytes = 1 << 16
	cfg.CacheManifests = 8
	return cfg
}

func randBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// ingest feeds the named byte slices through a fresh Dedup and finishes it.
func ingest(t *testing.T, cfg Config, files map[string][]byte, order []string) *Dedup {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range order {
		if err := d.PutFile(name, bytes.NewReader(files[name])); err != nil {
			t.Fatalf("PutFile(%s): %v", name, err)
		}
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return d
}

// checkRestore asserts every file restores byte-identically.
func checkRestore(t *testing.T, d *Dedup, files map[string][]byte) {
	t.Helper()
	for name, want := range files {
		var got bytes.Buffer
		if err := d.Restore(name, &got); err != nil {
			t.Fatalf("Restore(%s): %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("Restore(%s): %d bytes != input %d bytes", name, got.Len(), len(want))
		}
	}
}

// checkInvariants asserts the accounting identities that must hold for any
// run.
func checkInvariants(t *testing.T, d *Dedup) {
	t.Helper()
	s := d.Stats()
	if s.DupChunks+s.NonDupChunks != s.ChunksIn {
		t.Errorf("D+N = %d+%d != chunks in %d", s.DupChunks, s.NonDupChunks, s.ChunksIn)
	}
	if s.StoredDataBytes+s.DupBytes != s.InputBytes {
		t.Errorf("stored %d + dup %d != input %d", s.StoredDataBytes, s.DupBytes, s.InputBytes)
	}
	if s.DupSlices > s.DupChunks {
		t.Errorf("L = %d > D = %d", s.DupSlices, s.DupChunks)
	}
	r := d.Report()
	if r.InodesManifest != s.Files {
		t.Errorf("manifests = %d, F = %d (one manifest per stored file)", r.InodesManifest, s.Files)
	}
	if r.InodesData != s.Files {
		t.Errorf("diskchunks = %d, F = %d", r.InodesData, s.Files)
	}
}

func TestSingleFileRoundTrip(t *testing.T) {
	files := map[string][]byte{"a": randBytes(1, 300_000)}
	d := ingest(t, testConfig(), files, []string{"a"})
	checkRestore(t, d, files)
	checkInvariants(t, d)
	s := d.Stats()
	if s.Files != 1 || s.FilesTotal != 1 {
		t.Errorf("F = %d / total %d, want 1/1", s.Files, s.FilesTotal)
	}
	if s.DupChunks != 0 {
		t.Errorf("unique data found %d dup chunks", s.DupChunks)
	}
	if s.StoredDataBytes != s.InputBytes {
		t.Error("unique data should store everything")
	}
}

func TestCompleteDuplicateFile(t *testing.T) {
	content := randBytes(2, 200_000)
	files := map[string][]byte{"a": content, "b": append([]byte(nil), content...)}
	d := ingest(t, testConfig(), files, []string{"a", "b"})
	checkRestore(t, d, files)
	checkInvariants(t, d)
	s := d.Stats()
	if s.Files != 1 {
		t.Errorf("F = %d, want 1: a complete duplicate file must not create a DiskChunk", s.Files)
	}
	if s.FilesTotal != 2 {
		t.Errorf("FilesTotal = %d, want 2", s.FilesTotal)
	}
	if s.StoredDataBytes != int64(len(content)) {
		t.Errorf("stored %d, want %d (content stored once)", s.StoredDataBytes, len(content))
	}
	if s.DupSlices != 1 {
		t.Errorf("L = %d, want 1 (one maximal duplicate run)", s.DupSlices)
	}
	if s.DupBytes != int64(len(content)) {
		t.Errorf("dup bytes = %d, want %d", s.DupBytes, len(content))
	}
}

func TestPartialDuplicateTriggersHHR(t *testing.T) {
	base := randBytes(3, 400_000)
	// Modify a region that is NOT aligned to chunk boundaries, in the
	// middle of what SHM will have merged.
	edited := append([]byte(nil), base...)
	copy(edited[150_011:], randBytes(4, 20_000))
	files := map[string][]byte{"a": base, "b": edited}
	d := ingest(t, testConfig(), files, []string{"a", "b"})
	checkRestore(t, d, files)
	checkInvariants(t, d)
	s := d.Stats()
	if s.HHROps == 0 {
		t.Error("a mid-merged-chunk edit must trigger HHR")
	}
	if s.HHRDiskAccesses == 0 {
		t.Error("HHR must charge disk accesses for chunk reloads")
	}
	// Most of b should deduplicate: stored data well below 2x base.
	if s.StoredDataBytes > int64(float64(len(base))*1.3) {
		t.Errorf("stored %d bytes; HHR failed to deduplicate the unchanged regions of b", s.StoredDataBytes)
	}
}

func TestByteCompareAblation(t *testing.T) {
	base := randBytes(5, 400_000)
	edited := append([]byte(nil), base...)
	copy(edited[200_123:], randBytes(6, 10_000))
	files := map[string][]byte{"a": base, "b": edited}

	withBC := ingest(t, testConfig(), files, []string{"a", "b"})
	cfg := testConfig()
	cfg.DisableByteCompare = true
	withoutBC := ingest(t, cfg, files, []string{"a", "b"})
	checkRestore(t, withoutBC, files)
	checkInvariants(t, withoutBC)

	if withoutBC.Stats().HHROps != 0 {
		t.Error("DisableByteCompare must disable HHR")
	}
	if withBC.Stats().StoredDataBytes >= withoutBC.Stats().StoredDataBytes {
		t.Errorf("byte comparison should store less: with %d, without %d",
			withBC.Stats().StoredDataBytes, withoutBC.Stats().StoredDataBytes)
	}
}

// findHHREditOffset probes for an edit position whose duplicate boundary
// falls inside a merged entry (HHR fires). Edits landing inside a hook
// chunk stop match extension without HHR — correct behavior, but not the
// scenario this test needs.
func findHHREditOffset(t *testing.T, base []byte) int64 {
	t.Helper()
	for off := int64(100_000); off < 160_000; off += 1_111 {
		edited := append([]byte(nil), base...)
		copy(edited[off:], randBytes(off, 5_000))
		d, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.PutFile("a", bytes.NewReader(base)); err != nil {
			t.Fatal(err)
		}
		if err := d.PutFile("b", bytes.NewReader(edited)); err != nil {
			t.Fatal(err)
		}
		if d.Stats().HHROps > 0 {
			return off
		}
	}
	t.Fatal("no probed edit offset triggered HHR")
	return 0
}

func TestEdgeHashPreventsRepeatedReloads(t *testing.T) {
	base := randBytes(7, 300_000)
	off := findHHREditOffset(t, base)
	mkEdit := func(seed int64) []byte {
		e := append([]byte(nil), base...)
		copy(e[off:], randBytes(seed, 5_000))
		return e
	}
	// Files c1..c4 share base's dup slices but have distinct edits at the
	// same position: without the EdgeHash guard, later files keep reloading
	// the same boundary region; with it, the first HHR plants a plain
	// EdgeHash entry that stops subsequent reloads.
	files := map[string][]byte{"a": base}
	order := []string{"a"}
	for i := int64(1); i <= 4; i++ {
		name := fmt.Sprintf("c%d", i)
		files[name] = mkEdit(100 + i)
		order = append(order, name)
	}
	with := ingest(t, testConfig(), files, order)
	checkRestore(t, with, files)
	checkInvariants(t, with)
	cfg := testConfig()
	cfg.DisableEdgeHash = true
	without := ingest(t, cfg, files, order)
	checkRestore(t, without, files)
	checkInvariants(t, without)

	if with.Stats().HHROps == 0 {
		t.Fatal("probe said this offset triggers HHR but none fired")
	}
	if w, wo := with.Stats().HHRDiskAccesses, without.Stats().HHRDiskAccesses; w >= wo {
		t.Errorf("EdgeHash should reduce HHR disk accesses on repeated same-position edits: with %d, without %d", w, wo)
	}
}

func TestInsertionShiftStillDeduplicates(t *testing.T) {
	base := randBytes(9, 400_000)
	shifted := append(append(append([]byte(nil), base[:50_000]...), randBytes(10, 777)...), base[50_000:]...)
	files := map[string][]byte{"a": base, "b": shifted}
	d := ingest(t, testConfig(), files, []string{"a", "b"})
	checkRestore(t, d, files)
	checkInvariants(t, d)
	s := d.Stats()
	// CDC realigns after the insert; the bulk of b must deduplicate.
	if s.DupBytes < int64(len(base))/2 {
		t.Errorf("only %d of %d bytes deduplicated after a 777-byte insert", s.DupBytes, len(base))
	}
}

func TestManyFilesWithCacheEviction(t *testing.T) {
	cfg := testConfig()
	cfg.CacheManifests = 2 // force evictions and disk-hook rediscovery
	files := map[string][]byte{}
	var order []string
	base := randBytes(11, 150_000)
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("f%02d", i)
		content := append([]byte(nil), base...)
		// Each file gets its own small unique region.
		copy(content[i*10_000:], randBytes(int64(50+i), 4_000))
		files[name] = content
		order = append(order, name)
	}
	d := ingest(t, cfg, files, order)
	checkRestore(t, d, files)
	checkInvariants(t, d)
	// More loads than the cache holds means manifests were evicted.
	if loads := d.Stats().ManifestLoads; loads <= int64(cfg.CacheManifests) {
		t.Errorf("test intended to exercise evictions but only %d manifests were loaded", loads)
	}
	// Deduplication must still have worked across evictions (via disk
	// hooks): total stored far less than total input.
	s := d.Stats()
	if s.StoredDataBytes > s.InputBytes/2 {
		t.Errorf("stored %d of %d input: dedup across evictions failed", s.StoredDataBytes, s.InputBytes)
	}
}

func TestSHMManifestShape(t *testing.T) {
	// A unique file's manifest must alternate Hook and Merged entries: 2
	// entries and 1 hook per SD chunks.
	cfg := testConfig()
	d, _ := New(cfg)
	content := randBytes(13, 200_000)
	if err := d.PutFile("a", bytes.NewReader(content)); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	r := d.Report()
	maxEntriesBytes := (2*(s.NonDupChunks/int64(cfg.SD)) + 2) * 37
	if r.ManifestBytes > maxEntriesBytes*2 {
		t.Errorf("manifest bytes %d exceed SHM expectation ~%d", r.ManifestBytes, maxEntriesBytes)
	}
	wantHooks := s.NonDupChunks / int64(cfg.SD)
	if r.InodesHook < wantHooks/2 || r.InodesHook > wantHooks*2 {
		t.Errorf("hooks = %d, want about N/SD = %d", r.InodesHook, wantHooks)
	}
	// Far fewer hooks than chunks — the whole point of SHM.
	if r.InodesHook*2 > s.NonDupChunks {
		t.Errorf("hooks = %d for %d chunks: SHM not sampling", r.InodesHook, s.NonDupChunks)
	}
}

func TestDeterminism(t *testing.T) {
	files := map[string][]byte{
		"a": randBytes(15, 250_000),
		"b": randBytes(16, 250_000),
	}
	files["c"] = append(append([]byte(nil), files["a"][:100_000]...), files["b"][:100_000]...)
	order := []string{"a", "b", "c"}
	d1 := ingest(t, testConfig(), files, order)
	d2 := ingest(t, testConfig(), files, order)
	if d1.Stats() != d2.Stats() {
		t.Errorf("two identical runs differ:\n%+v\n%+v", d1.Stats(), d2.Stats())
	}
}

func TestEmptyFile(t *testing.T) {
	files := map[string][]byte{"empty": {}, "a": randBytes(17, 100_000)}
	d := ingest(t, testConfig(), files, []string{"empty", "a"})
	checkRestore(t, d, files)
	s := d.Stats()
	if s.Files != 1 {
		t.Errorf("F = %d: empty file must not count as stored", s.Files)
	}
}

func TestTinyFile(t *testing.T) {
	files := map[string][]byte{"tiny": []byte("hello"), "tiny2": []byte("hello")}
	d := ingest(t, testConfig(), files, []string{"tiny", "tiny2"})
	checkRestore(t, d, files)
	s := d.Stats()
	if s.DupBytes != 5 {
		t.Errorf("dup bytes = %d, want 5 (tiny2 dedups against tiny)", s.DupBytes)
	}
}

func TestNoBloomStillCorrect(t *testing.T) {
	cfg := testConfig()
	cfg.DisableBloom = true
	content := randBytes(19, 200_000)
	files := map[string][]byte{"a": content, "b": append([]byte(nil), content...)}
	d := ingest(t, cfg, files, []string{"a", "b"})
	checkRestore(t, d, files)
	checkInvariants(t, d)
	// Without a bloom filter, every fresh hash costs a disk hook query.
	misses := d.Disk().Counters().MissedLookups.Get(simdisk.Hook)
	if misses == 0 {
		t.Error("expected missed hook lookups without the bloom filter")
	}

	withBloom := ingest(t, testConfig(), files, []string{"a", "b"})
	m2 := withBloom.Disk().Counters().MissedLookups.Get(simdisk.Hook)
	if m2 >= misses {
		t.Errorf("bloom filter should eliminate most missed lookups: with %d, without %d", m2, misses)
	}
}

func TestDiskFailurePropagates(t *testing.T) {
	disk := simdisk.New()
	boom := errors.New("io error")
	d, err := NewOnDisk(testConfig(), disk)
	if err != nil {
		t.Fatal(err)
	}
	disk.SetFailureHook(func(op simdisk.Op, cat simdisk.Category, _ string) error {
		if op == simdisk.OpCreate && cat == simdisk.Data {
			return boom
		}
		return nil
	})
	err = d.PutFile("a", bytes.NewReader(randBytes(21, 100_000)))
	if !errors.Is(err, boom) {
		t.Errorf("PutFile error = %v, want injected failure", err)
	}
}

func TestEvictionWriteBackFailureSurfacesAtFinish(t *testing.T) {
	disk := simdisk.New()
	cfg := testConfig()
	cfg.CacheManifests = 1
	d, _ := NewOnDisk(cfg, disk)
	base := randBytes(23, 200_000)
	if err := d.PutFile("a", bytes.NewReader(base)); err != nil {
		t.Fatal(err)
	}
	// Make manifests unwritable, then force an HHR (dirty manifest) and an
	// eviction via a second file.
	boom := errors.New("manifest write failed")
	disk.SetFailureHook(func(op simdisk.Op, cat simdisk.Category, _ string) error {
		if op == simdisk.OpWrite && cat == simdisk.Manifest {
			return boom
		}
		return nil
	})
	edited := append([]byte(nil), base...)
	copy(edited[100_000:], randBytes(24, 5_000))
	if err := d.PutFile("b", bytes.NewReader(edited)); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); !errors.Is(err, boom) {
		t.Errorf("Finish = %v, want deferred eviction failure", err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.ECS = -1 },
		func(c *Config) { c.SD = 1 },
		func(c *Config) { c.SD = -1 },
		func(c *Config) { c.BloomBytes = -1 },
		func(c *Config) { c.CacheManifests = -1 },
		func(c *Config) { c.TTTD, c.FastCDC = true, true },
	}
	for i, mut := range bad {
		var cfg Config
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	// The zero Config is the paper's setting.
	d, err := New(Config{})
	if err != nil {
		t.Fatalf("zero config refused: %v", err)
	}
	if got := d.Config(); got.ECS != 4096 || got.SD != 64 || got.CacheManifests != 64 || got.BloomBytes != 1<<20 {
		t.Errorf("zero config resolved to %+v", got.Options)
	}
}

func TestStatsRAMTracked(t *testing.T) {
	files := map[string][]byte{"a": randBytes(25, 200_000)}
	d := ingest(t, testConfig(), files, []string{"a"})
	if d.Stats().RAMBytes < int64(testConfig().BloomBytes) {
		t.Errorf("RAMBytes = %d, must at least cover the bloom filter", d.Stats().RAMBytes)
	}
}

func TestRestoreUnknownFile(t *testing.T) {
	d, _ := New(testConfig())
	if err := d.Restore("ghost", &bytes.Buffer{}); err == nil {
		t.Error("restore of unknown file succeeded")
	}
}

func TestManifestEntriesNeverOverlap(t *testing.T) {
	// After arbitrary HHR splices, a manifest's entries must tile its
	// DiskChunk exactly: contiguous, non-overlapping, starting at 0.
	base := randBytes(27, 400_000)
	files := map[string][]byte{"a": base}
	order := []string{"a"}
	for i := int64(0); i < 5; i++ {
		e := append([]byte(nil), base...)
		copy(e[60_000*(i+1):], randBytes(300+i, 7_000))
		name := fmt.Sprintf("e%d", i)
		files[name] = e
		order = append(order, name)
	}
	d := ingest(t, testConfig(), files, order)
	checkRestore(t, d, files)
	// Inspect every manifest on disk: entries must tile the DiskChunk.
	checked := 0
	for _, name := range d.Disk().Names(simdisk.Manifest) {
		raw, err := d.Disk().Read(simdisk.Manifest, name)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := hashutil.ParseHex(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := store.DecodeManifest(sum, store.FormatMHD, raw)
		if err != nil {
			t.Fatalf("manifest %s: %v", name[:8], err)
		}
		var off int64
		for i, e := range m.Entries {
			if e.Start != off {
				t.Errorf("manifest %s entry %d starts at %d, want %d", name[:8], i, e.Start, off)
			}
			off += e.Size
		}
		if sz, ok := d.Disk().Size(simdisk.Data, name); !ok || off != sz {
			t.Errorf("manifest %s covers %d bytes, DiskChunk has %d", name[:8], off, sz)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no manifests on disk")
	}
}
