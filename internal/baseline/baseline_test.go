// The tests live outside the package so that the shared matrices can be
// driven from internal/exp's engine table (which imports this package).
package baseline_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"mhdedup/internal/algo"
	"mhdedup/internal/baseline"
	"mhdedup/internal/exp"
	"mhdedup/internal/metrics"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/trace"
)

// Compile-time interface checks.
var (
	_ algo.Deduplicator = (*baseline.CDC)(nil)
	_ algo.Deduplicator = (*baseline.Bimodal)(nil)
	_ algo.Deduplicator = (*baseline.SubChunk)(nil)
	_ algo.Deduplicator = (*baseline.Sparse)(nil)
)

func randBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// smallConfig is the small-scale configuration the tests run at (ECS 512,
// SD 4).
func smallConfig() baseline.Config {
	cfg := baseline.DefaultConfig()
	cfg.ECS = 512
	cfg.SD = 4
	cfg.BloomBytes = 1 << 16
	return cfg
}

// builders constructs each baseline at smallConfig's scale, one per row of
// the engine table that is not MHD's — so an engine added to the table joins
// every shared matrix below.
func builders(t *testing.T) map[string]func() algo.Deduplicator {
	t.Helper()
	out := make(map[string]func() algo.Deduplicator)
	for _, a := range exp.AllAlgorithms {
		if a == exp.AlgoMHD || a == exp.AlgoSIMHD {
			continue
		}
		p := exp.DefaultParams(a, 512, 4, 0)
		p.BloomBytes = 1 << 16
		out[a] = func() algo.Deduplicator {
			d, err := exp.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
	}
	return out
}

func feed(t *testing.T, d algo.Deduplicator, files map[string][]byte, order []string) {
	t.Helper()
	for _, name := range order {
		if err := d.PutFile(name, bytes.NewReader(files[name])); err != nil {
			t.Fatalf("PutFile(%s): %v", name, err)
		}
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func checkRestoreAll(t *testing.T, name string, d algo.Deduplicator, files map[string][]byte) {
	t.Helper()
	for fname, want := range files {
		var got bytes.Buffer
		if err := d.Restore(fname, &got); err != nil {
			t.Fatalf("%s: Restore(%s): %v", name, fname, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%s: Restore(%s): %d bytes != %d input bytes", name, fname, got.Len(), len(want))
		}
	}
}

func checkBaselineInvariants(t *testing.T, name string, r metrics.Report) {
	t.Helper()
	if r.DupChunks+r.NonDupChunks != r.ChunksIn {
		t.Errorf("%s: D+N != chunks in (%d+%d != %d)", name, r.DupChunks, r.NonDupChunks, r.ChunksIn)
	}
	if r.StoredDataBytes+r.DupBytes != r.InputBytes {
		t.Errorf("%s: stored %d + dup %d != input %d", name, r.StoredDataBytes, r.DupBytes, r.InputBytes)
	}
	if r.DupSlices > r.DupChunks {
		t.Errorf("%s: L > D", name)
	}
}

func TestRoundTripAllBaselines(t *testing.T) {
	base := randBytes(1, 300_000)
	edited := append([]byte(nil), base...)
	copy(edited[123_457:], randBytes(2, 9_000))
	files := map[string][]byte{
		"a": base,
		"b": append([]byte(nil), base...), // complete duplicate
		"c": edited,                       // partial duplicate
		"d": randBytes(3, 150_000),        // unique
	}
	order := []string{"a", "b", "c", "d"}
	for name, build := range builders(t) {
		t.Run(name, func(t *testing.T) {
			d := build()
			feed(t, d, files, order)
			checkRestoreAll(t, name, d, files)
			r := d.Report()
			checkBaselineInvariants(t, name, r)
			// The complete duplicate must mostly vanish.
			if r.StoredDataBytes > int64(len(base))*2+int64(len(files["d"]))+40_000 {
				t.Errorf("%s: stored %d bytes — duplicate file not eliminated", name, r.StoredDataBytes)
			}
			if r.DupBytes == 0 {
				t.Errorf("%s: found no duplicate data at all", name)
			}
		})
	}
}

func TestEmptyAndTinyFiles(t *testing.T) {
	files := map[string][]byte{
		"empty": {},
		"tiny":  []byte("0123456789"),
		"tiny2": []byte("0123456789"),
	}
	order := []string{"empty", "tiny", "tiny2"}
	for name, build := range builders(t) {
		t.Run(name, func(t *testing.T) {
			d := build()
			feed(t, d, files, order)
			checkRestoreAll(t, name, d, files)
		})
	}
}

func TestBackupWorkloadAllBaselines(t *testing.T) {
	cfg := trace.Default()
	cfg.Machines = 2
	cfg.Days = 3
	cfg.SnapshotBytes = 1 << 20
	cfg.EditsPerDay = 8
	cfg.EditBytes = 8 << 10
	ds, err := trace.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range builders(t) {
		t.Run(name, func(t *testing.T) {
			d := build()
			if err := ds.EachFile(func(info trace.FileInfo, r io.Reader) error {
				return d.PutFile(info.Name, r)
			}); err != nil {
				t.Fatal(err)
			}
			if err := d.Finish(); err != nil {
				t.Fatal(err)
			}
			r := d.Report()
			checkBaselineInvariants(t, name, r)
			if der := r.DataOnlyDER(); der < 1.5 {
				t.Errorf("%s: data-only DER = %.2f on a backup workload", name, der)
			}
			// Full restore check.
			if err := ds.EachFile(func(info trace.FileInfo, rd io.Reader) error {
				want, err := io.ReadAll(rd)
				if err != nil {
					return err
				}
				var got bytes.Buffer
				if err := d.Restore(info.Name, &got); err != nil {
					return err
				}
				if !bytes.Equal(got.Bytes(), want) {
					return fmt.Errorf("restore of %s differs", info.Name)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %s", name, r.String())
		})
	}
}

func TestCDCHooksPerChunk(t *testing.T) {
	d, _ := baseline.NewCDC(smallConfig(), simdisk.New())
	feed(t, d, map[string][]byte{"a": randBytes(10, 200_000)}, []string{"a"})
	r := d.Report()
	// CDC's defining cost: one hook per non-duplicate chunk (Table I).
	if r.InodesHook != r.NonDupChunks {
		t.Errorf("hooks = %d, non-dup chunks = %d: CDC must hook every chunk", r.InodesHook, r.NonDupChunks)
	}
	if r.ManifestBytes != r.NonDupChunks*36 {
		t.Errorf("manifest bytes = %d, want 36·N = %d", r.ManifestBytes, r.NonDupChunks*36)
	}
}

func TestBimodalRechunksOnlyTransitions(t *testing.T) {
	cfg := smallConfig()
	base := randBytes(20, 400_000)
	edited := append([]byte(nil), base...)
	copy(edited[200_000:], randBytes(21, 4_000))

	d, _ := baseline.NewBimodal(cfg, simdisk.New())
	feed(t, d, map[string][]byte{"a": base, "b": edited}, []string{"a", "b"})
	checkRestoreAll(t, "bimodal", d, map[string][]byte{"a": base, "b": edited})
	r := d.Report()
	if r.BigChunkQueries == 0 {
		t.Error("bimodal must query at big-chunk granularity")
	}
	// Small chunks exist only near the edit: ChunksIn exceeds the big-chunk
	// count, but not by the full re-chunk factor.
	bigOnly := r.InputBytes / int64(cfg.ECS*cfg.SD)
	if r.ChunksIn <= bigOnly {
		t.Error("no re-chunking happened despite a transition point")
	}
	fullRechunk := r.InputBytes / int64(cfg.ECS)
	if r.ChunksIn >= fullRechunk {
		t.Error("bimodal re-chunked everything; it must be selective")
	}
}

func TestSubChunkShape(t *testing.T) {
	base := randBytes(30, 300_000)
	files := map[string][]byte{"a": base, "b": append([]byte(nil), base...)}
	d, _ := baseline.NewSubChunk(smallConfig(), simdisk.New())
	feed(t, d, files, []string{"a", "b"})
	checkRestoreAll(t, "subchunk", d, files)
	r := d.Report()
	// One hook per stored file (Table I: hooks = F), many containers (one
	// per stored big chunk).
	if r.InodesHook != r.Files {
		t.Errorf("hooks = %d, files = %d: SubChunk allocates one hook per manifest", r.InodesHook, r.Files)
	}
	if r.InodesData <= r.Files {
		t.Errorf("containers = %d: SubChunk must create one container per big chunk", r.InodesData)
	}
	if r.BigChunkQueries == 0 {
		t.Error("subchunk must query big chunks")
	}
	// The duplicate file must be found at big-chunk granularity.
	if r.DupBytes < int64(len(base))*9/10 {
		t.Errorf("dup bytes = %d of %d: duplicate file not eliminated", r.DupBytes, len(base))
	}
}

func TestSparseShape(t *testing.T) {
	cfg := smallConfig()
	cfg.SegmentFactor = 5
	base := randBytes(40, 400_000)
	files := map[string][]byte{"a": base, "b": append([]byte(nil), base...)}
	d, _ := baseline.NewSparse(cfg, simdisk.New())
	feed(t, d, files, []string{"a", "b"})
	checkRestoreAll(t, "sparse", d, files)
	r := d.Report()
	if d.SparseIndexBytes() == 0 {
		t.Error("sparse index is empty after ingesting data")
	}
	if r.RAMBytes < d.SparseIndexBytes() {
		t.Error("RAM accounting must include the sparse index")
	}
	// Manifests are per segment: more than one per file for this size.
	segs := r.InputBytes / (int64(cfg.ECS) * int64(cfg.SD) * int64(cfg.SegmentFactor))
	if r.InodesManifest < segs/2 {
		t.Errorf("manifests = %d, expected about one per segment (~%d)", r.InodesManifest, segs)
	}
	// Sparse manifests record duplicate chunks too: manifest bytes exceed
	// what non-dup entries alone would need.
	if r.ManifestBytes <= r.NonDupChunks*36 {
		t.Errorf("manifest bytes = %d, want > 36·N = %d (dup hashes re-recorded)", r.ManifestBytes, r.NonDupChunks*36)
	}
	// Segment-level dedup must find the duplicate file.
	if r.DupBytes < int64(len(base))*8/10 {
		t.Errorf("dup bytes = %d of %d", r.DupBytes, len(base))
	}
}

func TestSubChunkMissesWithoutLocality(t *testing.T) {
	// SubChunk finds small-chunk duplicates only via cached manifests. A
	// duplicate region embedded in otherwise-new data, far from any
	// manifest hit, is found by CDC but may be missed by SubChunk — the
	// recall gap the paper describes. Verify CDC recall >= SubChunk recall.
	shared := randBytes(50, 60_000)
	mk := func(seed int64) []byte {
		out := append([]byte(nil), randBytes(seed, 100_000)...)
		out = append(out, shared...)
		out = append(out, randBytes(seed+1000, 100_000)...)
		return out
	}
	files := map[string][]byte{"a": mk(51), "b": mk(53)}
	order := []string{"a", "b"}

	cdc, _ := baseline.NewCDC(smallConfig(), simdisk.New())
	feed(t, cdc, files, order)

	sub, _ := baseline.NewSubChunk(smallConfig(), simdisk.New())
	feed(t, sub, files, order)
	checkRestoreAll(t, "subchunk", sub, files)

	if cdc.Report().DupBytes < sub.Report().DupBytes {
		t.Errorf("CDC found %d dup bytes, SubChunk %d: full index must have at least locality's recall",
			cdc.Report().DupBytes, sub.Report().DupBytes)
	}
}

func TestBaselineValidation(t *testing.T) {
	if _, err := baseline.NewCDC(baseline.Config{}, simdisk.New()); err == nil {
		t.Error("zero CDC config accepted")
	}
	if _, err := baseline.NewBimodal(baseline.Config{ECS: 512, SD: 1}, simdisk.New()); err == nil {
		t.Error("bimodal SD=1 accepted")
	}
	if _, err := baseline.NewSubChunk(baseline.Config{ECS: 512, SD: 0}, simdisk.New()); err == nil {
		t.Error("subchunk SD=0 accepted")
	}
	if _, err := baseline.NewSparse(baseline.Config{ECS: 512, SD: 4}, simdisk.New()); err == nil {
		t.Error("sparse with zero factors accepted")
	}
}

func TestRestoreAfterFinishDoesNotPerturbNothing(t *testing.T) {
	// Snapshot counters, restore, verify Report uses the snapshot pattern
	// correctly (callers snapshot before restoring; the disk counters do
	// move, which is expected and documented).
	files := map[string][]byte{"a": randBytes(60, 100_000)}
	d, _ := baseline.NewCDC(smallConfig(), simdisk.New())
	feed(t, d, files, []string{"a"})
	before := d.Report()
	var buf bytes.Buffer
	if err := d.Restore("a", &buf); err != nil {
		t.Fatal(err)
	}
	if before.Disk.Accesses() > d.Disk().Counters().Accesses() {
		t.Error("counters moved backwards")
	}
	if before.StoredDataBytes != d.Report().StoredDataBytes {
		t.Error("restore changed stored data accounting")
	}
}
