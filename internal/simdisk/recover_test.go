package simdisk

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// snapshot captures the full object state of a disk for equality checks.
// contractKey files the disk's cut contract in a snapshot, beside its
// categories: a mount must bring the contract back with the objects.
const contractKey Category = -1

func snapshot(d *Disk) map[Category]map[string][]byte {
	out := map[Category]map[string][]byte{contractKey: {"": d.Contract(nil)}}
	for _, cat := range categoryOrder() {
		out[cat] = make(map[string][]byte)
		for _, name := range d.Names(cat) {
			data, _ := d.Read(cat, name)
			out[cat][name] = data
		}
	}
	return out
}

func sameState(a, b map[Category]map[string][]byte) bool {
	if !bytes.Equal(a[contractKey][""], b[contractKey][""]) {
		return false
	}
	for _, cat := range categoryOrder() {
		if len(a[cat]) != len(b[cat]) {
			return false
		}
		for name, data := range a[cat] {
			if !bytes.Equal(b[cat][name], data) {
				return false
			}
		}
	}
	return true
}

func TestSaveDirGenerations(t *testing.T) {
	dir := t.TempDir()
	d := New()
	d.Create(Data, "a", []byte("one"))
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gen-000001", "chunks")); err != nil {
		t.Fatalf("generation 1 not materialized: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, markerFile)); err != nil {
		t.Fatalf("commit marker missing: %v", err)
	}

	d.Create(Data, "b", []byte("two"))
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gen-000002")); err != nil {
		t.Fatalf("generation 2 not materialized: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gen-000001")); !os.IsNotExist(err) {
		t.Error("superseded generation 1 should have been removed")
	}

	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !sameState(snapshot(d), snapshot(back)) {
		t.Error("reloaded state differs from saved state")
	}
}

func TestRecoverRollsBackInterruptedSave(t *testing.T) {
	dir := t.TempDir()
	d := New()
	d.Create(Data, "a", []byte("one"))
	d.Create(FileManifest, "f/one", []byte("recipe"))
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	old := snapshot(d)

	// Second save killed on its 3rd file-system mutation, tearing the
	// payload it was writing.
	d.Create(Data, "b", []byte("two"))
	var point int
	d.SetSaveHook(func(path string, data []byte) ([]byte, error) {
		point++
		if point == 3 {
			if data != nil {
				return data[:len(data)/2], ErrKilled
			}
			return nil, ErrKilled
		}
		return data, nil
	})
	err := d.SaveDir(dir)
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("killed save error = %v, want ErrKilled", err)
	}
	d.SetSaveHook(nil)
	if _, err := os.Stat(filepath.Join(dir, "gen-000002.tmp")); err != nil {
		t.Fatalf("killed save should leave its temp dir: %v", err)
	}

	rep, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation != 1 {
		t.Errorf("recovered generation = %d, want 1", rep.Generation)
	}
	found := false
	for _, r := range rep.RolledBack {
		if r == "gen-000002.tmp" {
			found = true
		}
	}
	if !found {
		t.Errorf("RolledBack = %v, want gen-000002.tmp rolled back", rep.RolledBack)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !sameState(old, snapshot(back)) {
		t.Error("recovered store is not the old generation")
	}

	// The store keeps working: a clean save now commits generation 2.
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err = LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !sameState(snapshot(d), snapshot(back)) {
		t.Error("post-recovery save did not round-trip")
	}
}

func TestRecoverRepairsTornMarker(t *testing.T) {
	dir := t.TempDir()
	d := New()
	d.Create(Data, "a", []byte("one"))
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	old := snapshot(d)

	// Tear the commit marker (e.g. a crash while a later tool rewrote it).
	marker := filepath.Join(dir, markerFile)
	raw, err := os.ReadFile(marker)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(marker, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// LoadDir still mounts the last consistent generation, read-only.
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !sameState(old, snapshot(back)) {
		t.Error("load with torn marker did not find the consistent generation")
	}

	rep, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RepairedMarker || rep.Generation != 1 {
		t.Errorf("recover = %+v, want repaired marker for generation 1", rep)
	}
	if m, _, err := readMarker(dir); err != nil || m == nil || m.Generation != 1 {
		t.Errorf("marker after recover = %+v, %v", m, err)
	}
}

func TestLoadDirRejectsTamperedGeneration(t *testing.T) {
	dir := t.TempDir()
	d := New()
	d.Create(Data, "a", []byte("one"))
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	// Truncate an object file after commit: the generation no longer
	// matches its manifest, and nothing else validates.
	path := filepath.Join(dir, "gen-000001", "chunks", "a")
	if err := os.WriteFile(path, []byte("o"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil {
		t.Fatal("LoadDir should refuse a store whose only generation fails validation")
	}
}

// TestSaveDirAfterCrashBetweenRenameAndMarker pins the one crash window
// where the marker and the directory listing disagree: the new generation
// gen-N is already renamed into place but the crash hits before the marker
// swap, so the marker still names N-1. A later SaveDir that trusted the
// marker alone would compute gen = N and fail renaming onto the existing
// non-empty gen-N until a Recover ran; SaveDir must instead clear both
// witnesses (max of marker and newest valid generation) and succeed on its
// own.
func TestSaveDirAfterCrashBetweenRenameAndMarker(t *testing.T) {
	dir := t.TempDir()
	d := New()
	d.Create(Data, "a", []byte("one"))
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	// Kill the second save exactly at the marker swap: gen-000002 is
	// committed on disk in everything but the marker.
	d.Create(Data, "b", []byte("two"))
	markerRename := "rename:" + filepath.Join(dir, markerFile)
	d.SetSaveHook(func(path string, data []byte) ([]byte, error) {
		if path == markerRename {
			return nil, ErrKilled
		}
		return data, nil
	})
	if err := d.SaveDir(dir); !errors.Is(err, ErrKilled) {
		t.Fatalf("killed save error = %v, want ErrKilled", err)
	}
	d.SetSaveHook(nil)
	if _, err := os.Stat(filepath.Join(dir, "gen-000002")); err != nil {
		t.Fatalf("renamed generation missing, kill point off target: %v", err)
	}
	if m, _, err := readMarker(dir); err != nil || m == nil || m.Generation != 1 {
		t.Fatalf("marker = %+v, %v; want still generation 1", m, err)
	}

	// No Recover: the very next save must skip past the orphaned gen-2.
	d.Create(Data, "c", []byte("three"))
	if err := d.SaveDir(dir); err != nil {
		t.Fatalf("save after rename/marker crash failed without Recover: %v", err)
	}
	if m, _, err := readMarker(dir); err != nil || m == nil || m.Generation != 3 {
		t.Fatalf("marker after save = %+v, %v; want generation 3", m, err)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !sameState(snapshot(d), snapshot(back)) {
		t.Error("post-crash save did not round-trip")
	}
	// And the orphaned generation is gone (post-commit cleanup).
	if _, err := os.Stat(filepath.Join(dir, "gen-000002")); !os.IsNotExist(err) {
		t.Error("orphaned gen-000002 survived the committing save")
	}
}

func TestSaveDirKillEveryPoint(t *testing.T) {
	// Exhaustively kill a small save at every injection point (without
	// tearing): recovery must always mount old or new, never a hybrid and
	// never an error.
	base := func() *Disk {
		d := New()
		d.Create(Data, "a", []byte("aaaa"))
		d.Create(Hook, "h", []byte("hhhh"))
		return d
	}
	// Count the points of a full save.
	probe := base()
	probe.Create(Data, "b", []byte("bbbb"))
	dirProbe := t.TempDir()
	if err := probe.SaveDir(dirProbe); err != nil { // establish gen 1... not needed; count points of initial save
		t.Fatal(err)
	}
	var total int
	probe.SetSaveHook(func(string, []byte) ([]byte, error) { total++; return nil, nil })
	if err := probe.SaveDir(dirProbe); err != nil {
		t.Fatal(err)
	}
	probe.SetSaveHook(nil)
	if total < 5 {
		t.Fatalf("suspiciously few save points: %d", total)
	}

	for kill := 1; kill <= total; kill++ {
		kill := kill
		t.Run(fmt.Sprintf("kill-%d", kill), func(t *testing.T) {
			dir := t.TempDir()
			d := base()
			if err := d.SaveDir(dir); err != nil {
				t.Fatal(err)
			}
			oldState := snapshot(d)
			d.Create(Data, "b", []byte("bbbb"))
			newState := snapshot(d)

			var point int
			d.SetSaveHook(func(path string, data []byte) ([]byte, error) {
				point++
				if point == kill {
					return nil, ErrKilled
				}
				return data, nil
			})
			err := d.SaveDir(dir)
			d.SetSaveHook(nil)
			if err != nil && !errors.Is(err, ErrKilled) {
				t.Fatalf("save error = %v", err)
			}
			if _, err := Recover(dir); err != nil {
				t.Fatalf("recover: %v", err)
			}
			back, err := LoadDir(dir)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			got := snapshot(back)
			if !sameState(got, oldState) && !sameState(got, newState) {
				t.Fatalf("kill point %d: recovered state is neither old nor new", kill)
			}
		})
	}
}

func FuzzEncodeDecodeName(f *testing.F) {
	for _, s := range []string{"", "m00/d01", "win:disk\\c", "%", "%25", "a%2Fb", "plain", "..", "%zz", "%2f"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		// Forward direction: every object name round-trips exactly and the
		// encoded form is a single path element.
		enc := EncodeName(s)
		if s != "" && filepath.Base(enc) != enc {
			t.Fatalf("EncodeName(%q) = %q contains separators", s, enc)
		}
		dec, err := decodeName(enc)
		if err != nil {
			t.Fatalf("decode(encode(%q)) failed: %v", s, err)
		}
		if dec != s {
			t.Fatalf("decode(encode(%q)) = %q", s, dec)
		}
		// Adversarial direction: decoding an arbitrary file name must never
		// panic, and anything it accepts must be the canonical encoding of
		// its result — so two distinct on-disk names cannot collide on one
		// object name.
		if dec2, err := decodeName(s); err == nil {
			if EncodeName(dec2) != s {
				t.Fatalf("decodeName accepted non-canonical %q -> %q (canonical %q)", s, dec2, EncodeName(dec2))
			}
		}
	})
}
