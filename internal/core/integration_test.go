package core

import (
	"bytes"
	"io"
	"testing"

	"mhdedup/internal/trace"
)

// datasetConfig is a small multi-machine backup workload for integration
// testing.
func datasetConfig() trace.Config {
	cfg := trace.Default()
	cfg.Machines = 3
	cfg.Days = 4
	cfg.SnapshotBytes = 1 << 20
	cfg.EditsPerDay = 8
	cfg.EditBytes = 8 << 10
	return cfg
}

// TestDatasetRoundTrip is the master integration test: ingest a synthetic
// multi-machine backup workload and verify every snapshot restores
// byte-identically, with sane dedup statistics.
func TestDatasetRoundTrip(t *testing.T) {
	ds, err := trace.New(datasetConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{}
	cfg.ECS = 1024
	cfg.SD = 8
	cfg.BloomBytes = 1 << 18
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = ds.EachFile(func(info trace.FileInfo, r io.Reader) error {
		return d.PutFile(info.Name, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}

	s := d.Stats()
	if s.InputBytes != ds.TotalBytes() {
		t.Errorf("ingested %d bytes, dataset has %d", s.InputBytes, ds.TotalBytes())
	}
	if s.DupChunks+s.NonDupChunks != s.ChunksIn {
		t.Errorf("chunk classification does not add up: %d + %d != %d", s.DupChunks, s.NonDupChunks, s.ChunksIn)
	}
	if s.StoredDataBytes+s.DupBytes != s.InputBytes {
		t.Errorf("byte classification does not add up")
	}
	r := d.Report()
	if der := r.DataOnlyDER(); der < 2 {
		t.Errorf("data-only DER = %.2f; backup workload should exceed 2", der)
	}
	if r.MetaDataRatio() > 0.05 {
		t.Errorf("MetaDataRatio = %.4f; MHD should stay well below 5%%", r.MetaDataRatio())
	}
	if r.RealDER() >= r.DataOnlyDER() {
		t.Error("real DER must be below data-only DER (metadata costs something)")
	}
	if s.HHROps == 0 {
		t.Error("a realistic edited workload should trigger some HHR")
	}

	// Every file restores byte-identically.
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
			t.Fatalf("Restore(%s) differs from input (%d vs %d bytes)", f.Name, got.Len(), len(want))
		}
	}
	t.Logf("dataset: %s", r.String())
}

// TestSDTradeoff checks the Fig 9 direction at small scale: smaller SD
// finds at least as much duplicate data (never less).
func TestSDTradeoff(t *testing.T) {
	ds, err := trace.New(datasetConfig())
	if err != nil {
		t.Fatal(err)
	}
	stored := map[int]int64{}
	meta := map[int]int64{}
	for _, sd := range []int{4, 16, 64} {
		cfg := Config{}
		cfg.ECS = 1024
		cfg.SD = sd
		cfg.BloomBytes = 1 << 18
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
		rep := d.Report()
		stored[sd] = rep.StoredDataBytes
		meta[sd] = rep.MetadataBytes
		t.Logf("SD=%d: %s", sd, rep.String())
	}
	// Larger SD must not produce more metadata (the whole point of SHM).
	if meta[64] > meta[4] {
		t.Errorf("metadata grew with SD: SD=4 %d, SD=64 %d", meta[4], meta[64])
	}
	// Smaller SD should not store dramatically more data than larger SD.
	if stored[4] > stored[64]*3/2 {
		t.Errorf("SD=4 stored %d vs SD=64 %d — smaller SD should dedup at least comparably", stored[4], stored[64])
	}
}
