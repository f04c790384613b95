package dedup

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"mhdedup/internal/core"
	"mhdedup/internal/store"
)

func randBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestAllEnginesThroughFacade(t *testing.T) {
	base := randBytes(1, 200_000)
	edited := append([]byte(nil), base...)
	copy(edited[80_000:], randBytes(2, 5_000))

	for _, a := range Algorithms() {
		t.Run(string(a), func(t *testing.T) {
			eng, err := New(a, Options{ECS: 512, SD: 4, BloomBytes: 1 << 16})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.PutFile("a", bytes.NewReader(base)); err != nil {
				t.Fatal(err)
			}
			if err := eng.PutFile("b", bytes.NewReader(edited)); err != nil {
				t.Fatal(err)
			}
			if err := eng.Finish(); err != nil {
				t.Fatal(err)
			}
			rep := eng.Report()
			if rep.InputBytes != int64(len(base)+len(edited)) {
				t.Errorf("input bytes = %d", rep.InputBytes)
			}
			if rep.DupBytes == 0 {
				t.Error("no duplicates found in a near-duplicate pair")
			}
			for name, want := range map[string][]byte{"a": base, "b": edited} {
				var got bytes.Buffer
				if err := eng.Restore(name, &got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("restore of %s differs", name)
				}
			}
			if ratio := rep.ThroughputRatio(DefaultCostModel()); ratio <= 0 {
				t.Errorf("throughput ratio = %v", ratio)
			}
		})
	}
}

// TestIngestParallelRefusedBySingleStreamEngines: concurrency is
// IngestParallel's workers argument and nothing else — MHD and SI-MHD take
// two streams at once, the seven single-stream engines refuse, and every
// engine takes the same streams one at a time.
func TestIngestParallelRefusedBySingleStreamEngines(t *testing.T) {
	streams := make([]IngestStream, 2)
	for i := range streams {
		data := randBytes(int64(i+1), 50_000)
		streams[i] = IngestStream{Items: []IngestItem{{
			Name: fmt.Sprintf("s%d", i),
			Open: func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(data)), nil },
		}}}
	}
	for _, a := range Algorithms() {
		for _, workers := range []int{1, 2} {
			eng, err := New(a, Options{ECS: 512, SD: 4, BloomBytes: 1 << 16})
			if err != nil {
				t.Fatal(err)
			}
			err = IngestParallel(eng, workers, streams)
			refuse := workers > 1 && a != MHD && a != SIMHD
			if refuse != (err != nil) {
				t.Errorf("%s workers %d: err = %v, want refusal = %v", a, workers, err, refuse)
			}
			if refuse && err != nil && !strings.Contains(err.Error(), "concurrent ingest") {
				t.Errorf("%s: refusal %q does not name concurrent ingest", a, err)
			}
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	eng, err := New(MHD, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.PutFile("x", bytes.NewReader(randBytes(3, 100_000))); err != nil {
		t.Fatal(err)
	}
	if err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestZeroOptionsIsThePapersSetting: every engine builds from the zero
// Options, resolved to the defaults the Options doc names, and a negative
// knob is refused by name.
func TestZeroOptionsIsThePapersSetting(t *testing.T) {
	for _, a := range Algorithms() {
		eng, err := New(a, Options{})
		if err != nil {
			t.Fatalf("%s: zero Options refused: %v", a, err)
		}
		if c, _ := store.ContractOf(eng.Disk()); c.ECS != 4096 {
			t.Errorf("%s: zero Options cut at ECS %d, want 4096", a, c.ECS)
		}
		for field, o := range map[string]Options{"SD": {SD: -1}, "ECS": {ECS: -1}, "CacheManifests": {CacheManifests: -1}} {
			if _, err := New(a, o); err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("%s: negative %s: err = %v, want one naming it", a, field, err)
			}
		}
	}
	eng, err := New(MHD, Options{ExpectedInputBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	want := Options{ECS: 4096, SD: 64, CacheManifests: 64, ExpectedInputBytes: 1 << 30,
		BloomBytes: (1<<30)/4096*12/8 + 1024}
	if got := eng.(*core.Dedup).Config().Options; got != want {
		t.Errorf("MHD resolved the zero Options to %+v, want %+v", got, want)
	}
	// A baseline's filter is sized by the same rule: the RAM of an engine
	// that has ingested nothing is its filter.
	cdc, err := New(CDC, Options{ExpectedInputBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := cdc.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := cdc.Report().RAMBytes; got != int64(want.BloomBytes) {
		t.Errorf("CDC holds a %d-byte filter, MHD %d", got, want.BloomBytes)
	}
}

// TestIngestParallelReportsCloseFailure: an item whose Close fails fails
// the ingest, on every engine.
func TestIngestParallelReportsCloseFailure(t *testing.T) {
	streams := []IngestStream{{Name: "s", Items: []IngestItem{{
		Name: "f",
		Open: func() (io.ReadCloser, error) {
			return failCloser{bytes.NewReader(randBytes(5, 50_000))}, nil
		},
	}}}}
	for _, a := range []Algorithm{MHD, CDC} {
		eng, err := New(a, Options{ECS: 512, SD: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := IngestParallel(eng, 1, streams); err == nil || !strings.Contains(err.Error(), "close") {
			t.Errorf("%s: a failed Close gave err = %v", a, err)
		}
	}
}

type failCloser struct{ io.Reader }

func (failCloser) Close() error { return fmt.Errorf("close failed") }

func TestUnknownAlgorithm(t *testing.T) {
	if _, err := New(Algorithm("quantum"), Options{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestWorkloadFacade(t *testing.T) {
	cfg := DefaultWorkloadConfig()
	cfg.Machines = 2
	cfg.Days = 2
	cfg.SnapshotBytes = 1 << 20
	cfg.EditsPerDay = 8
	cfg.EditBytes = 8 << 10
	w, err := NewWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(MHD, Options{ECS: 1024, SD: 8, ExpectedInputBytes: w.TotalBytes()})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.EachFile(func(info WorkloadFile, r io.Reader) error {
		return eng.PutFile(info.Name, r)
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	if eng.Report().DataOnlyDER() < 1.5 {
		t.Errorf("backup workload DER = %.2f", eng.Report().DataOnlyDER())
	}
}

func TestAblationOptions(t *testing.T) {
	opts := Options{ECS: 512, SD: 4, BloomBytes: 1 << 16,
		DisableBloom: true, DisableByteCompare: true, DisableEdgeHash: true}
	eng, err := New(MHD, opts)
	if err != nil {
		t.Fatal(err)
	}
	content := randBytes(4, 150_000)
	eng.PutFile("a", bytes.NewReader(content))
	eng.PutFile("b", bytes.NewReader(content))
	if err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	if eng.Report().HHROps != 0 {
		t.Error("byte-compare disabled but HHR ran")
	}
	var got bytes.Buffer
	if err := eng.Restore("b", &got); err != nil || !bytes.Equal(got.Bytes(), content) {
		t.Error("restore failed under ablation options")
	}
}

func TestSaveAndOpenStore(t *testing.T) {
	content := map[string][]byte{
		"img/a": randBytes(10, 150_000),
		"img/b": randBytes(11, 80_000),
	}
	content["img/c"] = append([]byte(nil), content["img/a"]...) // duplicate
	eng, err := New(MHD, Options{ECS: 512, SD: 4, BloomBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"img/a", "img/b", "img/c"} {
		if err := eng.PutFile(name, bytes.NewReader(content[name])); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := SaveStore(eng, dir); err != nil {
		t.Fatal(err)
	}

	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := st.Files()
	if len(files) != 3 || files[0] != "img/a" || files[2] != "img/c" {
		t.Fatalf("Files() = %v", files)
	}
	for name, want := range content {
		var got bytes.Buffer
		if err := st.Restore(name, &got); err != nil {
			t.Fatalf("Restore(%s) from reopened store: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s differs after save/open cycle", name)
		}
	}
	if err := st.Restore("ghost", io.Discard); err == nil {
		t.Error("restore of unknown file from store succeeded")
	}
}

func TestResumeDeduplicatesAgainstSavedStore(t *testing.T) {
	base := randBytes(20, 200_000)
	opts := Options{ECS: 512, SD: 4, BloomBytes: 1 << 16}

	for _, a := range []Algorithm{MHD, SIMHD, CDC} {
		t.Run(string(a), func(t *testing.T) {
			// Session 1: ingest the base image and save.
			eng1, err := New(a, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng1.PutFile("gen1", bytes.NewReader(base)); err != nil {
				t.Fatal(err)
			}
			if err := eng1.Finish(); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := SaveStore(eng1, dir); err != nil {
				t.Fatal(err)
			}

			// Session 2: resume and ingest a near-duplicate.
			eng2, err := Resume(a, opts, dir)
			if err != nil {
				t.Fatal(err)
			}
			gen2 := append([]byte(nil), base...)
			copy(gen2[90_000:], randBytes(21, 4_000))
			if err := eng2.PutFile("gen2", bytes.NewReader(gen2)); err != nil {
				t.Fatal(err)
			}
			if err := eng2.Finish(); err != nil {
				t.Fatal(err)
			}
			rep := eng2.Report()
			if rep.DupBytes < int64(len(base))/2 {
				t.Errorf("resumed %s found only %d dup bytes of %d: detection state not rebuilt",
					a, rep.DupBytes, len(base))
			}
			// Both generations restore from the resumed engine.
			for name, want := range map[string][]byte{"gen1": base, "gen2": gen2} {
				var got bytes.Buffer
				if err := eng2.Restore(name, &got); err != nil {
					t.Fatalf("restore %s: %v", name, err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("%s differs after resume", name)
				}
			}
		})
	}
}

// TestResumeSizesBloomLikeNew pins the one construction path: an engine
// resumed over a saved store mounts the same bloom filter as the engine that
// wrote it — auto-sized from ExpectedInputBytes when BloomBytes is zero,
// BloomBytes when it is given. With nothing ingested the filter is the whole
// RAM footprint.
func TestResumeSizesBloomLikeNew(t *testing.T) {
	for _, a := range []Algorithm{MHD, CDC} {
		for _, opts := range []Options{
			{ExpectedInputBytes: 4 << 30},
			{ExpectedInputBytes: 4 << 30, BloomBytes: 1 << 16},
		} {
			fresh, err := New(a, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Finish(); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := SaveStore(fresh, dir); err != nil {
				t.Fatal(err)
			}
			resumed, err := Resume(a, opts, dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.Finish(); err != nil {
				t.Fatal(err)
			}
			want, got := fresh.Report().RAMBytes, resumed.Report().RAMBytes
			if got != want {
				t.Errorf("%s %+v: resumed engine holds a %d-byte filter, the new one %d", a, opts, got, want)
			}
			if opts.BloomBytes != 0 && want != int64(opts.BloomBytes) {
				t.Errorf("%s: explicit BloomBytes %d ignored: filter is %d bytes", a, opts.BloomBytes, want)
			}
			if opts.BloomBytes == 0 && want <= 1<<20 {
				t.Errorf("%s: filter of %d bytes was not sized from ExpectedInputBytes", a, want)
			}
		}
	}
}

func TestResumeUnsupportedAlgorithms(t *testing.T) {
	dir := t.TempDir()
	for _, a := range []Algorithm{SubChunk, SparseIndexing, Bimodal, FBC} {
		if _, err := Resume(a, Options{}, dir); err == nil {
			t.Errorf("Resume(%s) should be rejected", a)
		}
	}
}

func TestStoreCheck(t *testing.T) {
	eng, _ := New(MHD, Options{ECS: 512, SD: 4, BloomBytes: 1 << 16})
	eng.PutFile("a", bytes.NewReader(randBytes(30, 100_000)))
	eng.Finish()
	dir := t.TempDir()
	if err := SaveStore(eng, dir); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if problems := st.Check(); len(problems) != 0 {
		t.Errorf("clean store reported problems: %v", problems)
	}
}
