package simdisk

import (
	"bytes"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	d := New()
	d.Create(Data, "aabbcc", []byte("payload-1"))
	d.Create(Hook, "ddeeff", []byte("payload-2"))
	d.Create(Manifest, "aabbcc", []byte("payload-3"))
	d.Create(FileManifest, "m00/d01", []byte("payload-4")) // slash in name
	d.Create(FileManifest, "win:disk\\c", []byte("payload-5"))

	dir := t.TempDir()
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for cat, name := range map[Category]string{
		Data: "aabbcc", Hook: "ddeeff", Manifest: "aabbcc",
	} {
		got, err := back.Read(cat, name)
		if err != nil {
			t.Fatalf("%v %q: %v", cat, name, err)
		}
		want, _ := d.Read(cat, name)
		if !bytes.Equal(got, want) {
			t.Errorf("%v %q: content differs", cat, name)
		}
	}
	for _, name := range []string{"m00/d01", "win:disk\\c"} {
		if _, err := back.Read(FileManifest, name); err != nil {
			t.Errorf("file manifest %q lost in round-trip: %v", name, err)
		}
	}
	// Loaded disks start with fresh counters (minus the reads above).
	if back.Counters().Creates.Total() != 0 {
		t.Error("LoadDir should not count creates")
	}
}

func TestLoadMissingDirIsEmpty(t *testing.T) {
	d, err := LoadDir(filepath.Join(t.TempDir(), "nothing-here"))
	if err != nil {
		t.Fatal(err)
	}
	if d.TotalObjects() != 0 {
		t.Error("loading a missing directory should give an empty disk")
	}
}

func TestNameEncodingRoundTrip(t *testing.T) {
	f := func(s string) bool {
		enc := EncodeName(s)
		if filepath.Base(enc) != enc && s != "" {
			// Encoded names must not contain separators (single path
			// element), except the degenerate empty string.
			return false
		}
		dec, err := decodeName(enc)
		return err == nil && dec == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"a/b/c", "x%2Fy", "%", "C:\\img", ""} {
		dec, err := decodeName(EncodeName(s))
		if err != nil || dec != s {
			t.Errorf("round-trip of %q failed: %q, %v", s, dec, err)
		}
	}
}

func TestDecodeNameRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"%", "%2", "%zz"} {
		if _, err := decodeName(bad); err == nil {
			t.Errorf("decodeName(%q) succeeded", bad)
		}
	}
}

func TestDirSize(t *testing.T) {
	d := New()
	d.Create(Data, "a", make([]byte, 1000))
	d.Create(Hook, "b", make([]byte, 20))
	dir := t.TempDir()
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	n, err := DirSize(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1020 {
		t.Errorf("DirSize = %d, want 1020", n)
	}
}
