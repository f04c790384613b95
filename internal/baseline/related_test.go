package baseline_test

import (
	"bytes"
	"fmt"
	"testing"

	"mhdedup/internal/algo"
	"mhdedup/internal/baseline"
	"mhdedup/internal/simdisk"
)

var (
	_ algo.Deduplicator = (*baseline.Fingerdiff)(nil)
	_ algo.Deduplicator = (*baseline.ExtremeBinning)(nil)
)

func TestFingerdiffRoundTripAndShape(t *testing.T) {
	base := randBytes(301, 300_000)
	edited := append([]byte(nil), base...)
	copy(edited[150_000:], randBytes(302, 7_000))
	files := map[string][]byte{
		"a": base,
		"b": append([]byte(nil), base...),
		"c": edited,
	}
	cfg := smallConfig()
	cfg.SD = 8
	d, err := baseline.NewFingerdiff(cfg, simdisk.New())
	if err != nil {
		t.Fatal(err)
	}
	feed(t, d, files, []string{"a", "b", "c"})
	checkRestoreAll(t, "fingerdiff", d, files)
	r := d.Report()
	checkBaselineInvariants(t, "fingerdiff", r)

	// Full-index recall: the exact duplicate and the unchanged parts of c
	// must deduplicate completely.
	if r.DupBytes < int64(len(base))*18/10 {
		t.Errorf("dup bytes = %d, want nearly 2x base: full index should find everything", r.DupBytes)
	}
	// Tiny disk metadata (one entry per coalesced run, no hooks)...
	if r.InodesHook != 0 {
		t.Errorf("fingerdiff created %d hooks; it indexes in RAM", r.InodesHook)
	}
	if r.ManifestBytes >= r.NonDupChunks*36 {
		t.Errorf("manifest bytes %d not below per-chunk cost %d: coalescing missing",
			r.ManifestBytes, r.NonDupChunks*36)
	}
	// ...paid for with a RAM database proportional to all chunks.
	if r.RAMBytes < r.NonDupChunks*36 {
		t.Errorf("RAM %d below expected full-index footprint", r.RAMBytes)
	}
}

func TestFingerdiffCoalesceBound(t *testing.T) {
	d, _ := baseline.NewFingerdiff(smallConfig(), simdisk.New())
	content := randBytes(310, 200_000)
	feed(t, d, map[string][]byte{"u": content}, []string{"u"})
	r := d.Report()
	// Unique data: entries = ceil(chunks / SD) approximately.
	maxEntries := r.NonDupChunks/4 + 2
	if got := r.ManifestBytes / 36; got > maxEntries {
		t.Errorf("manifest entries %d exceed coalesce bound ~%d", got, maxEntries)
	}
}

func TestExtremeBinningIdenticalFile(t *testing.T) {
	base := randBytes(320, 250_000)
	files := map[string][]byte{"a": base, "b": append([]byte(nil), base...)}
	d, err := baseline.NewExtremeBinning(smallConfig(), simdisk.New())
	if err != nil {
		t.Fatal(err)
	}
	feed(t, d, files, []string{"a", "b"})
	checkRestoreAll(t, "eb", d, files)
	r := d.Report()
	checkBaselineInvariants(t, "eb", r)
	if r.DupBytes != int64(len(base)) {
		t.Errorf("identical file: dup bytes = %d, want %d", r.DupBytes, len(base))
	}
	if r.InodesManifest != 1 {
		t.Errorf("bins = %d, want 1 (same representative chunk)", r.InodesManifest)
	}
}

func TestExtremeBinningSimilarFile(t *testing.T) {
	base := randBytes(330, 250_000)
	edited := append([]byte(nil), base...)
	copy(edited[120_000:], randBytes(331, 5_000))
	files := map[string][]byte{"a": base, "b": edited}
	d, _ := baseline.NewExtremeBinning(smallConfig(), simdisk.New())
	feed(t, d, files, []string{"a", "b"})
	checkRestoreAll(t, "eb", d, files)
	r := d.Report()
	// Similar files land in the same bin with high probability (the edit
	// leaves the minimum-hash representative intact unless it happened to
	// live in the edited 2% of the file); the unchanged bytes deduplicate.
	if r.DupBytes < int64(len(base))*8/10 {
		t.Logf("note: representative chunk was edited; bin missed (dup=%d)", r.DupBytes)
	}
	if r.ManifestLoads > 1 {
		t.Errorf("manifest loads = %d: extreme binning loads at most one bin per file", r.ManifestLoads)
	}
}

func TestExtremeBinningManyGenerations(t *testing.T) {
	d, _ := baseline.NewExtremeBinning(smallConfig(), simdisk.New())
	base := randBytes(340, 200_000)
	files := map[string][]byte{}
	var order []string
	cur := base
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("g%d", i)
		files[name] = cur
		order = append(order, name)
		next := append([]byte(nil), cur...)
		copy(next[30_000*(i+1):], randBytes(int64(400+i), 3_000))
		cur = next
	}
	feed(t, d, files, order)
	checkRestoreAll(t, "eb", d, files)
	r := d.Report()
	if r.StoredDataBytes > r.InputBytes/2 {
		t.Errorf("stored %d of %d: generational dedup failed", r.StoredDataBytes, r.InputBytes)
	}
	// One bin lookup path per file: manifest loads bounded by file count.
	if r.ManifestLoads > r.FilesTotal {
		t.Errorf("manifest loads %d exceed one per file (%d)", r.ManifestLoads, r.FilesTotal)
	}
}

func TestRelatedWorkValidation(t *testing.T) {
	if _, err := baseline.NewFingerdiff(baseline.Config{Options: algo.Options{ECS: -1}}, simdisk.New()); err == nil {
		t.Error("negative fingerdiff ECS accepted")
	}
	if _, err := baseline.NewFingerdiff(baseline.Config{Options: algo.Options{ECS: 512, SD: -1}}, simdisk.New()); err == nil {
		t.Error("negative SD (the coalescing bound) accepted")
	}
	if _, err := baseline.NewExtremeBinning(baseline.Config{Options: algo.Options{BloomBytes: -1}}, simdisk.New()); err == nil {
		t.Error("negative extreme binning BloomBytes accepted")
	}
	if _, err := baseline.NewFingerdiff(baseline.Config{}, simdisk.New()); err != nil {
		t.Errorf("zero fingerdiff config refused: %v", err)
	}
	if _, err := baseline.NewExtremeBinning(baseline.Config{}, simdisk.New()); err != nil {
		t.Errorf("zero extreme binning config refused: %v", err)
	}
}

func TestRelatedWorkEmptyFiles(t *testing.T) {
	cfg := baseline.Config{Options: algo.Options{ECS: 512}}
	fd, _ := baseline.NewFingerdiff(cfg, simdisk.New())
	eb, _ := baseline.NewExtremeBinning(cfg, simdisk.New())
	for name, d := range map[string]algo.Deduplicator{"fingerdiff": fd, "eb": eb} {
		if err := d.PutFile("empty", bytes.NewReader(nil)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := d.Finish(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var out bytes.Buffer
		if err := d.Restore("empty", &out); err != nil || out.Len() != 0 {
			t.Errorf("%s: empty file restore failed", name)
		}
	}
}
