package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"mhdedup/internal/trace"
)

// machineStreams groups a dataset's files into one ordered Stream per
// machine — the natural backup-stream boundary: days of one machine must
// stay in order, different machines are independent.
func machineStreams(ds *trace.Dataset) []Stream {
	byMachine := map[int]*Stream{}
	var order []int
	for _, f := range ds.Files() {
		name := f.Name
		st, ok := byMachine[f.Machine]
		if !ok {
			st = &Stream{Name: fmt.Sprintf("machine-%d", f.Machine)}
			byMachine[f.Machine] = st
			order = append(order, f.Machine)
		}
		st.Items = append(st.Items, Item{
			Name: name,
			Open: func() (io.ReadCloser, error) {
				r, err := ds.Open(name)
				if err != nil {
					return nil, err
				}
				return io.NopCloser(r), nil
			},
		})
	}
	out := make([]Stream, 0, len(order))
	for _, m := range order {
		out = append(out, *byMachine[m])
	}
	return out
}

// disjointDataset is an 8-machine workload whose machines share NO content
// (SharedFraction 0): every duplicate is within one machine's history, so
// per-stream classification is independent of what other streams do and the
// aggregate totals of a concurrent run must equal the serial run exactly.
func disjointDataset(t *testing.T) *trace.Dataset {
	t.Helper()
	cfg := trace.Default()
	cfg.Machines = 8
	cfg.Days = 3
	cfg.SnapshotBytes = 256 << 10
	cfg.SharedFraction = 0
	cfg.EditsPerDay = 6
	cfg.EditBytes = 8 << 10
	ds, err := trace.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// stressConfig: large enough cache that no manifest is ever evicted, so
// cache-residency (and with it duplicate classification) cannot depend on
// cross-stream eviction timing.
func stressConfig(sparse bool) Config {
	cfg := Config{}
	cfg.ECS = 1024
	cfg.SD = 8
	cfg.BloomBytes = 1 << 18
	cfg.CacheManifests = 64
	cfg.SparseIndex = sparse
	return cfg
}

// runSerial ingests the dataset with a plain PutFile loop (the pre-
// concurrency calling convention) and returns the finished engine.
func runSerial(t *testing.T, cfg Config, ds *trace.Dataset) *Dedup {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.EachFile(func(info trace.FileInfo, r io.Reader) error {
		return d.PutFile(info.Name, r)
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestConcurrentIngestMatchesSerial is the concurrency stress test: 8
// goroutines ingest 8 disjoint machine streams into one shared engine
// (run it under -race), and every aggregate the streams cannot influence
// in each other must equal the serial run bit-for-bit.
func TestConcurrentIngestMatchesSerial(t *testing.T) {
	for _, mode := range []struct {
		name   string
		sparse bool
	}{{"bf-mhd", false}, {"si-mhd", true}} {
		t.Run(mode.name, func(t *testing.T) {
			ds := disjointDataset(t)
			cfg := stressConfig(mode.sparse)

			serial := runSerial(t, cfg, ds)
			want := serial.Stats()

			par, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := par.IngestStreamsContext(context.Background(), 8, machineStreams(ds)); err != nil {
				t.Fatal(err)
			}
			if err := par.Finish(); err != nil {
				t.Fatal(err)
			}
			got := par.Stats()

			// Pure-sum counters must agree exactly with the serial run.
			if got.InputBytes != want.InputBytes {
				t.Errorf("InputBytes = %d, serial %d", got.InputBytes, want.InputBytes)
			}
			if got.ChunksIn != want.ChunksIn {
				t.Errorf("ChunksIn = %d, serial %d", got.ChunksIn, want.ChunksIn)
			}
			if got.StoredDataBytes != want.StoredDataBytes {
				t.Errorf("StoredDataBytes = %d, serial %d", got.StoredDataBytes, want.StoredDataBytes)
			}
			if got.DupBytes != want.DupBytes {
				t.Errorf("DupBytes = %d, serial %d", got.DupBytes, want.DupBytes)
			}
			if got.DupChunks != want.DupChunks || got.NonDupChunks != want.NonDupChunks {
				t.Errorf("chunk classification = %d/%d, serial %d/%d",
					got.DupChunks, got.NonDupChunks, want.DupChunks, want.NonDupChunks)
			}
			if got.FilesTotal != want.FilesTotal || got.Files != want.Files {
				t.Errorf("files = %d/%d, serial %d/%d", got.FilesTotal, got.Files, want.FilesTotal, want.Files)
			}
			if got.StoredDataBytes+got.DupBytes != got.InputBytes {
				t.Error("byte classification does not add up")
			}

			// Every file must restore byte-identically from the concurrent
			// engine.
			for _, f := range ds.Files() {
				rd, err := ds.Open(f.Name)
				if err != nil {
					t.Fatal(err)
				}
				wantBytes, err := io.ReadAll(rd)
				if err != nil {
					t.Fatal(err)
				}
				var gotBytes bytes.Buffer
				if err := par.Restore(f.Name, &gotBytes); err != nil {
					t.Fatalf("Restore(%s): %v", f.Name, err)
				}
				if !bytes.Equal(gotBytes.Bytes(), wantBytes) {
					t.Fatalf("Restore(%s) differs from input", f.Name)
				}
			}
		})
	}
}

// TestConcurrentIngestSharedContent hammers the actual contention paths:
// machines share 60% of their content and the manifest cache is tiny, so
// streams race on hook publication, manifest extension, eviction
// write-back and orphaned-splice persistence. Exact totals are not
// deterministic here; what must hold is internal consistency and — the
// property everything else exists to protect — byte-identical restore of
// every file. Run under -race.
func TestConcurrentIngestSharedContent(t *testing.T) {
	cfg := trace.Default()
	cfg.Machines = 8
	cfg.Days = 3
	cfg.SnapshotBytes = 256 << 10
	cfg.EditsPerDay = 6
	cfg.EditBytes = 8 << 10
	ds, err := trace.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		sparse bool
	}{{"bf-mhd", false}, {"si-mhd", true}} {
		t.Run(mode.name, func(t *testing.T) {
			ecfg := stressConfig(mode.sparse)
			ecfg.CacheManifests = 2 // force evictions mid-extension
			d, err := New(ecfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.IngestStreamsContext(context.Background(), 8, machineStreams(ds)); err != nil {
				t.Fatal(err)
			}
			if err := d.Finish(); err != nil {
				t.Fatal(err)
			}
			s := d.Stats()
			if s.InputBytes != ds.TotalBytes() {
				t.Errorf("InputBytes = %d, dataset has %d", s.InputBytes, ds.TotalBytes())
			}
			if s.DupChunks+s.NonDupChunks != s.ChunksIn {
				t.Errorf("chunk classification does not add up: %d + %d != %d",
					s.DupChunks, s.NonDupChunks, s.ChunksIn)
			}
			if s.StoredDataBytes+s.DupBytes != s.InputBytes {
				t.Error("byte classification does not add up")
			}
			for _, f := range ds.Files() {
				rd, err := ds.Open(f.Name)
				if err != nil {
					t.Fatal(err)
				}
				want, err := io.ReadAll(rd)
				if err != nil {
					t.Fatal(err)
				}
				var got bytes.Buffer
				if err := d.Restore(f.Name, &got); err != nil {
					t.Fatalf("Restore(%s): %v", f.Name, err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("Restore(%s) differs from input", f.Name)
				}
			}
		})
	}
}

// TestConcurrentSessionsDirect: 8 goroutines, each one stream, call PutFile
// on one Dedup at once with disjoint files, without the IngestStreams
// scheduler in between.
func TestConcurrentSessionsDirect(t *testing.T) {
	cfg := stressConfig(false)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("f%d", i)
		// Each file is half unique content, half a repeat of its own first
		// half — in-stream duplication only.
		half := randBytes(int64(1000+i), 128<<10)
		files[name] = append(append([]byte(nil), half...), half...)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("f%d", i)
			errs[i] = d.PutFile(name, bytes.NewReader(files[name]))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	checkRestore(t, d, files)
	if got, want := d.Stats().FilesTotal, int64(8); got != want {
		t.Errorf("FilesTotal = %d, want %d", got, want)
	}
}

// TestIngestStreamsErrorPropagation: the first error stops the run and is
// returned; workers drain without deadlock or goroutine leak.
func TestIngestStreamsErrorPropagation(t *testing.T) {
	cfg := stressConfig(false)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var streams []Stream
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("s%d", i)
		if i == 3 {
			streams = append(streams, Stream{Name: name, Items: []Item{{
				Name: name,
				Open: func() (io.ReadCloser, error) { return nil, boom },
			}}})
			continue
		}
		data := randBytes(int64(2000+i), 64<<10)
		streams = append(streams, Stream{Name: name, Items: []Item{{
			Name: name,
			Open: func() (io.ReadCloser, error) {
				return io.NopCloser(bytes.NewReader(data)), nil
			},
		}}})
	}
	before := runtime.NumGoroutine()
	if err := d.IngestStreamsContext(context.Background(), 4, streams); !errors.Is(err, boom) {
		t.Fatalf("IngestStreams error = %v, want %v", err, boom)
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines polls until the goroutine count drops back to at most
// the baseline (with slack for runtime background goroutines).
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		runtime.Gosched()
	}
	// One last settle: give blocked goroutines a real chance to exit.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d now, baseline %d", runtime.NumGoroutine(), baseline)
}
