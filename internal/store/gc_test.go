package store

import (
	"testing"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
)

// gcFixture builds a store with two files: "a" owning container A, "b"
// owning container B but also referencing A (shared data).
func gcFixture(t *testing.T) (*simdisk.Disk, *Store, hashutil.Sum, hashutil.Sum) {
	t.Helper()
	disk := simdisk.New()
	s := New(disk, FormatMHD)

	mkContainer := func(tag string, size int64) hashutil.Sum {
		name := s.NextName()
		if err := s.SealDiskChunk(name, make([]byte, size)); err != nil {
			t.Fatal(err)
		}
		m := NewManifest(name, FormatMHD)
		m.Append(Entry{Hash: hashutil.SumString(tag), Start: 0, Size: size, Kind: KindHook})
		if err := s.CreateManifest(m); err != nil {
			t.Fatal(err)
		}
		if err := s.CreateHook(hashutil.SumString(tag), name); err != nil {
			t.Fatal(err)
		}
		return name
	}
	contA := mkContainer("hookA", 4096)
	contB := mkContainer("hookB", 2048)

	fmA := &FileManifest{File: "a"}
	fmA.Append(FileRef{Container: contA, Start: 0, Size: 4096})
	if err := s.WriteFileManifest(fmA); err != nil {
		t.Fatal(err)
	}
	fmB := &FileManifest{File: "b"}
	fmB.Append(FileRef{Container: contB, Start: 0, Size: 2048})
	fmB.Append(FileRef{Container: contA, Start: 0, Size: 1024}) // shared
	if err := s.WriteFileManifest(fmB); err != nil {
		t.Fatal(err)
	}
	return disk, s, contA, contB
}

func TestSweepKeepsEverythingWhileReferenced(t *testing.T) {
	disk, s, _, _ := gcFixture(t)
	st, err := s.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if st.ContainersDeleted != 0 || st.ManifestsDeleted != 0 || st.HooksDeleted != 0 {
		t.Errorf("sweep of fully-referenced store deleted things: %+v", st)
	}
	if rep := Check(disk, FormatMHD); !rep.OK() {
		t.Errorf("store inconsistent after no-op sweep: %v", rep.Problems)
	}
}

func TestSweepReclaimsUnsharedContainer(t *testing.T) {
	disk, s, contA, contB := gcFixture(t)
	// Delete file b: container B becomes garbage; container A stays (file
	// a still references it).
	if err := s.DeleteFile("b"); err != nil {
		t.Fatal(err)
	}
	st, err := s.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if st.ContainersDeleted != 1 || st.BytesReclaimed != 2048 {
		t.Errorf("sweep stats: %+v", st)
	}
	if _, ok := disk.Size(simdisk.Data, contB.Hex()); ok {
		t.Error("container B still present")
	}
	if _, ok := disk.Size(simdisk.Data, contA.Hex()); !ok {
		t.Error("shared container A was wrongly reclaimed")
	}
	if st.ManifestsDeleted != 1 {
		t.Errorf("manifest of B not reclaimed: %+v", st)
	}
	if st.HooksDeleted != 1 {
		t.Errorf("hook of B not reclaimed: %+v", st)
	}
	// Remaining file still restorable; store still consistent.
	if rep := Check(disk, FormatMHD); !rep.OK() {
		t.Errorf("store inconsistent after sweep: %v", rep.Problems)
	}
}

func TestSweepSharedDataSurvivesUntilLastReference(t *testing.T) {
	disk, s, contA, _ := gcFixture(t)
	if err := s.DeleteFile("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sweep(); err != nil {
		t.Fatal(err)
	}
	// b still references part of A.
	if _, ok := disk.Size(simdisk.Data, contA.Hex()); !ok {
		t.Fatal("container A reclaimed while file b still references it")
	}
	if err := s.DeleteFile("b"); err != nil {
		t.Fatal(err)
	}
	st, err := s.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if st.ContainersDeleted != 2 {
		t.Errorf("final sweep should reclaim both containers: %+v", st)
	}
	if disk.TotalObjects() != 0 {
		t.Errorf("%d objects left after deleting everything", disk.TotalObjects())
	}
}

func TestDeleteUnknownFile(t *testing.T) {
	_, s, _, _ := gcFixture(t)
	if err := s.DeleteFile("ghost"); err == nil {
		t.Error("deleting an unknown file succeeded")
	}
}

func TestSweepPrunesMultiContainerManifests(t *testing.T) {
	disk := simdisk.New()
	s := New(disk, FormatMultiContainer)
	// Two containers; one segment manifest referencing both.
	c1, c2 := s.NextName(), s.NextName()
	s.SealDiskChunk(c1, make([]byte, 1024))
	s.SealDiskChunk(c2, make([]byte, 1024))
	m := NewManifest(c1, FormatMultiContainer)
	m.Append(Entry{Hash: hashutil.SumString("x"), Container: c1, Start: 0, Size: 1024})
	m.Append(Entry{Hash: hashutil.SumString("y"), Container: c2, Start: 0, Size: 1024})
	if err := s.CreateManifest(m); err != nil {
		t.Fatal(err)
	}
	// Only c1 is referenced by a file.
	fm := &FileManifest{File: "f"}
	fm.Append(FileRef{Container: c1, Start: 0, Size: 1024})
	if err := s.WriteFileManifest(fm); err != nil {
		t.Fatal(err)
	}

	st, err := s.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if st.ContainersDeleted != 1 {
		t.Fatalf("sweep stats: %+v", st)
	}
	// The manifest survives but no longer references the dead container.
	back, err := s.ReadManifest(c1)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != 1 || back.Entries[0].Container != c1 {
		t.Errorf("manifest not pruned: %+v", back.Entries)
	}
	if rep := Check(disk, FormatMultiContainer); !rep.OK() {
		t.Errorf("store inconsistent after pruning sweep: %v", rep.Problems)
	}
}
