package store

import (
	"strings"
	"testing"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
)

// buildConsistentStore assembles a small valid store by hand.
func buildConsistentStore(t *testing.T) (*simdisk.Disk, *Store) {
	t.Helper()
	disk := simdisk.New()
	s := New(disk, FormatMHD)
	name := s.NextName()
	payload := make([]byte, 4096)
	if err := s.SealDiskChunk(name, payload); err != nil {
		t.Fatal(err)
	}
	m := NewManifest(name, FormatMHD)
	m.Append(Entry{Hash: hashutil.SumString("h1"), Start: 0, Size: 1024, Kind: KindHook})
	m.Append(Entry{Hash: hashutil.SumString("h2"), Start: 1024, Size: 3072, Kind: KindMerged})
	if err := s.CreateManifest(m); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateHook(hashutil.SumString("h1"), name); err != nil {
		t.Fatal(err)
	}
	fm := &FileManifest{File: "f"}
	fm.Append(FileRef{Container: name, Start: 0, Size: 4096})
	if err := s.WriteFileManifest(fm); err != nil {
		t.Fatal(err)
	}
	return disk, s
}

func TestCheckCleanStore(t *testing.T) {
	disk, _ := buildConsistentStore(t)
	rep := Check(disk, FormatMHD)
	if !rep.OK() {
		t.Fatalf("clean store reported problems: %v", rep.Problems)
	}
	if rep.DiskChunks != 1 || rep.Manifests != 1 || rep.Hooks != 1 || rep.FileManifests != 1 {
		t.Errorf("counts wrong: %+v", rep)
	}
}

func expectProblem(t *testing.T, rep CheckReport, substr string) {
	t.Helper()
	for _, p := range rep.Problems {
		if strings.Contains(p, substr) {
			return
		}
	}
	t.Errorf("expected a problem containing %q, got %v", substr, rep.Problems)
}

func TestCheckDetectsCorruptManifest(t *testing.T) {
	disk, _ := buildConsistentStore(t)
	name := disk.Names(simdisk.Manifest)[0]
	disk.Write(simdisk.Manifest, name, []byte("garbage!"))
	rep := Check(disk, FormatMHD)
	if rep.OK() {
		t.Fatal("corrupt manifest not detected")
	}
}

func TestCheckDetectsDanglingHook(t *testing.T) {
	disk, s := buildConsistentStore(t)
	ghost := hashutil.SumString("no-such-manifest")
	if err := s.CreateHook(hashutil.SumString("h9"), ghost); err != nil {
		t.Fatal(err)
	}
	rep := Check(disk, FormatMHD)
	expectProblem(t, rep, "target manifest")
}

func TestCheckDetectsOutOfBoundsFileRef(t *testing.T) {
	disk, s := buildConsistentStore(t)
	container := hashutil.SumString("missing-container")
	fm := &FileManifest{File: "broken"}
	fm.Append(FileRef{Container: container, Start: 0, Size: 10})
	if err := s.WriteFileManifest(fm); err != nil {
		t.Fatal(err)
	}
	rep := Check(disk, FormatMHD)
	expectProblem(t, rep, "container")
}

func TestCheckDetectsManifestGap(t *testing.T) {
	disk := simdisk.New()
	s := New(disk, FormatMHD)
	name := s.NextName()
	s.SealDiskChunk(name, make([]byte, 2048))
	m := NewManifest(name, FormatMHD)
	m.Append(Entry{Hash: hashutil.SumString("a"), Start: 0, Size: 1000, Kind: KindHook})
	m.Append(Entry{Hash: hashutil.SumString("b"), Start: 1100, Size: 948, Kind: KindPlain}) // gap at 1000
	s.CreateManifest(m)
	rep := Check(disk, FormatMHD)
	expectProblem(t, rep, "gap or overlap")
}

func TestCheckDetectsShortCoverage(t *testing.T) {
	disk := simdisk.New()
	s := New(disk, FormatMHD)
	name := s.NextName()
	s.SealDiskChunk(name, make([]byte, 2048))
	m := NewManifest(name, FormatMHD)
	m.Append(Entry{Hash: hashutil.SumString("a"), Start: 0, Size: 1024, Kind: KindHook})
	s.CreateManifest(m) // covers half the chunk
	rep := Check(disk, FormatMHD)
	expectProblem(t, rep, "entries cover")
}

// TestContractRecord pins the cut contract's record: a disk that records
// none reads as DefaultContract, the first stamp wins, and the record
// survives a save and a reload and, on a durable store, the log's replay
// before any generation holds it.
func TestContractRecord(t *testing.T) {
	disk := simdisk.New()
	if c, ok := ContractOf(disk); ok || c != DefaultContract {
		t.Fatalf("unrecorded disk: %v, %v; want DefaultContract, false", c, ok)
	}
	want := Contract{Algorithm: "cdc", Format: FormatBasic, ECS: 2048, Poly: 0x3DA3358B4DC175}
	want.Stamp(disk)
	Contract{Algorithm: "mhd", Format: FormatMHD, FastCDC: true, ECS: 8192}.Stamp(disk)
	if c, ok := ContractOf(disk); !ok || c != want {
		t.Fatalf("after two stamps: %v, %v; want the first, %v", c, ok, want)
	}
	dir := t.TempDir()
	if err := disk.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := simdisk.Load(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := ContractOf(loaded); !ok || c != want {
		t.Fatalf("reloaded: %v, %v; want %v", c, ok, want)
	}

	logged := t.TempDir()
	dur, _, err := OpenDurable(logged, DurableOptions{FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	want.Stamp(dur.Disk())
	if err := dur.Commit(); err != nil {
		t.Fatal(err)
	}
	dur.Close()
	replayed, _, err := simdisk.Load(logged, false)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := ContractOf(replayed); !ok || c != want {
		t.Fatalf("replayed from the log alone: %v, %v; want %v", c, ok, want)
	}
}
