package store

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
)

// runSizes is how the multi-run container of buildRunStore is cut: three
// runs, so both boundaries (1000 and 1700) fall inside manifest entries.
var runSizes = []int{1000, 700, 1300}

// buildRunStore seals one 3000-byte container, as the runs of runSizes or
// as one run, with a FormatBasic manifest whose entries straddle both run
// boundaries, and a file "f" that is the whole container. With stage it
// first stages the runs, as an engine does while the file is being cut.
func buildRunStore(t *testing.T, disk *simdisk.Disk, runs, stage bool) (*Store, hashutil.Sum, []byte) {
	t.Helper()
	s := New(disk, FormatBasic)
	data := make([]byte, 3000)
	rand.New(rand.NewSource(9)).Read(data)
	parts := [][]byte{bytes.Clone(data)}
	if runs {
		parts = nil
		for off, n := 0, 0; n < len(runSizes); off, n = off+runSizes[n], n+1 {
			parts = append(parts, bytes.Clone(data[off:off+runSizes[n]]))
		}
	}
	name := hashutil.SumString("multi-run")
	if stage {
		s.StageDiskChunk(name, 0, parts)
	}
	if err := s.SealDiskChunk(name, parts...); err != nil {
		t.Fatal(err)
	}
	m := NewManifest(name, FormatBasic)
	var off int64
	for _, size := range []int64{600, 800, 900, 700} {
		m.Append(Entry{Hash: hashutil.SumBytes(data[off : off+size]), Start: off, Size: size})
		off += size
	}
	if err := s.CreateManifest(m); err != nil {
		t.Fatal(err)
	}
	fm := &FileManifest{File: "f"}
	fm.Append(FileRef{Container: name, Start: 0, Size: 3000})
	if err := s.WriteFileManifest(fm); err != nil {
		t.Fatal(err)
	}
	return s, name, data
}

// readEveryWay restores f plain, ranged across the first run boundary and
// verified (whole and ranged across the second), verifies the container
// and scrubs the store, failing on any difference from data.
func readEveryWay(t *testing.T, s *Store, name hashutil.Sum, data []byte) {
	t.Helper()
	var out bytes.Buffer
	if err := s.RestoreFile("f", &out); err != nil || !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("plain restore: %v, %d bytes", err, out.Len())
	}
	out.Reset()
	if _, err := s.RestoreRange("f", 900, 300, &out, RestoreOptions{}); err != nil || !bytes.Equal(out.Bytes(), data[900:1200]) {
		t.Fatalf("ranged restore across the first run boundary: %v", err)
	}
	v := NewVerifier(s, VerifyOpts{})
	out.Reset()
	if err := v.RestoreFile("f", &out); err != nil || !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("verified restore: %v", err)
	}
	out.Reset()
	if _, err := v.RestoreRange("f", 1650, 100, &out, RestoreOptions{Workers: 1}); err != nil || !bytes.Equal(out.Bytes(), data[1650:1750]) {
		t.Fatalf("verified ranged restore across the second run boundary: %v", err)
	}
	if bad, err := v.VerifyContainer(name.Hex()); err != nil || len(bad) > 0 {
		t.Fatalf("VerifyContainer: %v, %v", bad, err)
	}
	if rep, err := s.Scrub(VerifyOpts{}, nil); err != nil || !rep.OK() {
		t.Fatalf("Scrub: %+v, %v", rep, err)
	}
}

// TestMultiRunContainerReadPaths: a container sealed as several runs reads
// back through every path exactly like one sealed as a single run — the
// same bytes and the same disk counters — survives a save/load round trip
// and a log replay, and damage in its second run is reported by name.
func TestMultiRunContainerReadPaths(t *testing.T) {
	one, many := simdisk.New(), simdisk.New()
	s1, _, _ := buildRunStore(t, one, false, false)
	s, name, data := buildRunStore(t, many, true, false)
	readEveryWay(t, s1, name, data)
	readEveryWay(t, s, name, data)
	if got, want := many.Counters(), one.Counters(); got != want {
		t.Fatalf("counters over runs %+v, over one run %+v", got, want)
	}
	if runs, err := s.ReadDiskChunkRange(name, 0, 3000); err != nil || len(runs) != len(runSizes) {
		t.Fatalf("the container reads back as %d runs (%v), want %d", len(runs), err, len(runSizes))
	}
	if runs, _ := s.ReadDiskChunkRange(name, 1650, 100); len(runs) != 2 || !bytes.Equal(runs.Bytes(), data[1650:1750]) {
		t.Fatalf("a read across a run boundary is %d views", len(runs))
	}

	dir := t.TempDir()
	if err := many.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := simdisk.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if raw, err := loaded.Read(simdisk.Data, name.Hex()); err != nil || !bytes.Equal(raw, data) {
		t.Fatalf("SaveDir → LoadDir: %v", err)
	}
	readEveryWay(t, New(loaded, FormatBasic), name, data)

	for _, stage := range []bool{false, true} {
		dir := t.TempDir()
		d, _, err := OpenDurable(dir, DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		buildRunStore(t, d.Disk(), true, stage)
		if err := d.Commit(); err != nil {
			t.Fatal(err)
		}
		d.WAL().Close()
		mounted, rep, err := simdisk.Load(dir, false)
		if err != nil || rep.Records == 0 {
			t.Fatalf("replay (staged %v): %+v, %v", stage, rep, err)
		}
		readEveryWay(t, New(mounted, FormatBasic), name, data)
	}

	if err := many.FlipStoredBit(simdisk.Data, name.Hex(), 8*1200+3); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = NewVerifier(s, VerifyOpts{}).RestoreFile("f", &out)
	if err == nil || !strings.Contains(err.Error(), name.Short()) {
		t.Fatalf("verified restore of a flipped second run: %v, want it to name container %s", err, name.Short())
	}
	rep, err := s.Scrub(VerifyOpts{}, nil)
	if err != nil || len(rep.Corrupt) != 1 || rep.Corrupt[0].Container != name || rep.Corrupt[0].Start != 600 {
		t.Fatalf("Scrub of a flipped second run: %+v, %v", rep, err)
	}
}
