package store

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
)

func sumOf(s string) hashutil.Sum { return hashutil.SumString(s) }

func TestEntrySizesMatchPaper(t *testing.T) {
	if FormatBasic.EntrySize() != 36 {
		t.Errorf("basic entry = %d bytes, want 36", FormatBasic.EntrySize())
	}
	if FormatMHD.EntrySize() != 37 {
		t.Errorf("MHD entry = %d bytes, want 37", FormatMHD.EntrySize())
	}
	if FormatMultiContainer.EntrySize() != 36 {
		t.Errorf("multi-container entry = %d bytes, want 36", FormatMultiContainer.EntrySize())
	}
	if ContainerEntryBytes != 28 {
		t.Errorf("container entry = %d bytes, want 28", ContainerEntryBytes)
	}
	if HookPayloadBytes != 20 {
		t.Errorf("hook payload = %d bytes, want 20", HookPayloadBytes)
	}
	if FileRefBytes != 28 {
		t.Errorf("file ref = %d bytes, want 28", FileRefBytes)
	}
}

func TestManifestEncodeLengthEqualsByteSize(t *testing.T) {
	for _, format := range []Format{FormatBasic, FormatMHD, FormatMultiContainer} {
		m := NewManifest(sumOf("m"), format)
		for i := 0; i < 7; i++ {
			e := Entry{Hash: sumOf(string(rune('a' + i))), Start: int64(i * 100), Size: 100}
			if format == FormatMHD && i%3 == 0 {
				e.Kind = KindHook
			}
			if format == FormatMultiContainer && i%2 == 0 {
				e.Container = sumOf("other")
			}
			m.Append(e)
		}
		enc := m.Encode()
		if len(enc) != m.ByteSize() {
			t.Errorf("format %d: Encode length %d != ByteSize %d", format, len(enc), m.ByteSize())
		}
	}
}

func TestManifestRoundTripBasicAndMHD(t *testing.T) {
	for _, format := range []Format{FormatBasic, FormatMHD} {
		m := NewManifest(sumOf("mf"), format)
		kinds := []EntryKind{KindPlain, KindHook, KindMerged}
		for i := 0; i < 10; i++ {
			k := KindPlain
			if format == FormatMHD {
				k = kinds[i%3]
			}
			m.Append(Entry{Hash: sumOf(string(rune('0' + i))), Start: int64(i) * 512, Size: 512, Kind: k})
		}
		back, err := DecodeManifest(m.Name, format, m.Encode())
		if err != nil {
			t.Fatalf("format %d: %v", format, err)
		}
		if !reflect.DeepEqual(m.Entries, back.Entries) {
			t.Errorf("format %d: entries do not round-trip", format)
		}
		if format == FormatBasic {
			// Kind is not serialized in basic format: everything reads as plain.
			for _, e := range back.Entries {
				if e.Kind != KindPlain {
					t.Error("basic format should decode plain kinds")
				}
			}
		}
	}
}

func TestManifestRoundTripMultiContainer(t *testing.T) {
	m := NewManifest(sumOf("seg"), FormatMultiContainer)
	containers := []hashutil.Sum{{}, sumOf("c1"), sumOf("c2")}
	for i := 0; i < 12; i++ {
		m.Append(Entry{
			Hash:      sumOf(string(rune('A' + i))),
			Container: containers[i%3],
			Start:     int64(i) * 1000,
			Size:      999,
		})
	}
	back, err := DecodeManifest(m.Name, FormatMultiContainer, m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Entries, back.Entries) {
		t.Error("multi-container entries do not round-trip")
	}
}

func TestManifestRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewManifest(sumOf("p"), FormatMHD)
		for i := 0; i < int(n%50); i++ {
			var h hashutil.Sum
			rng.Read(h[:])
			m.Append(Entry{
				Hash:  h,
				Start: rng.Int63n(1 << 40),
				Size:  rng.Int63n(1<<30) + 1,
				Kind:  EntryKind(rng.Intn(3)),
			})
		}
		back, err := DecodeManifest(m.Name, FormatMHD, m.Encode())
		return err == nil && reflect.DeepEqual(m.Entries, back.Entries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeManifestRejectsGarbage(t *testing.T) {
	if _, err := DecodeManifest(sumOf("x"), FormatBasic, make([]byte, 35)); err == nil {
		t.Error("truncated basic manifest accepted")
	}
	if _, err := DecodeManifest(sumOf("x"), FormatMHD, make([]byte, 36)); err == nil {
		t.Error("wrong-stride MHD manifest accepted")
	}
	bad := make([]byte, 37)
	bad[36] = 99 // invalid kind
	if _, err := DecodeManifest(sumOf("x"), FormatMHD, bad); err == nil {
		t.Error("invalid kind accepted")
	}
	if _, err := DecodeManifest(sumOf("x"), FormatMultiContainer, []byte{1, 2}); err == nil {
		t.Error("short multi-container manifest accepted")
	}
	// Container index out of range.
	m := NewManifest(sumOf("seg"), FormatMultiContainer)
	m.Append(Entry{Hash: sumOf("h"), Start: 0, Size: 10})
	enc := m.Encode()
	enc[len(enc)-1] = 200
	if _, err := DecodeManifest(sumOf("seg"), FormatMultiContainer, enc); err == nil {
		t.Error("out-of-range container index accepted")
	}
	if _, err := DecodeManifest(sumOf("x"), Format(9), nil); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestManifestLookupAndSplice(t *testing.T) {
	m := NewManifest(sumOf("m"), FormatMHD)
	for i := 0; i < 5; i++ {
		m.Append(Entry{Hash: sumOf(string(rune('a' + i))), Start: int64(i) * 100, Size: 100, Kind: KindMerged})
	}
	i, ok := m.Lookup(sumOf("c"))
	if !ok || i != 2 {
		t.Fatalf("Lookup(c) = %d,%v", i, ok)
	}
	if m.Dirty() {
		t.Error("fresh manifest should be clean")
	}
	// HHR-style splice: replace entry 2 with three pieces.
	repl := []Entry{
		{Hash: sumOf("c0"), Start: 200, Size: 40, Kind: KindPlain},
		{Hash: sumOf("c1"), Start: 240, Size: 30, Kind: KindPlain},
		{Hash: sumOf("c2"), Start: 270, Size: 30, Kind: KindPlain},
	}
	if err := m.Splice(2, repl...); err != nil {
		t.Fatal(err)
	}
	if len(m.Entries) != 7 {
		t.Fatalf("after splice: %d entries, want 7", len(m.Entries))
	}
	if !m.Dirty() {
		t.Error("splice must mark the manifest dirty")
	}
	if _, ok := m.Lookup(sumOf("c")); ok {
		t.Error("old hash still indexed after splice")
	}
	if i, ok := m.Lookup(sumOf("c1")); !ok || m.Entries[i].Size != 30 {
		t.Error("new hash not indexed after splice")
	}
	if i, ok := m.Lookup(sumOf("e")); !ok || i != 6 {
		t.Errorf("entry after splice point at %d, want 6", i)
	}
	if err := m.Splice(99); err == nil {
		t.Error("splice out of range accepted")
	}
}

func TestFileManifestCoalescing(t *testing.T) {
	fm := &FileManifest{File: "f"}
	c1, c2 := sumOf("c1"), sumOf("c2")
	fm.Append(FileRef{Container: c1, Start: 0, Size: 100})
	fm.Append(FileRef{Container: c1, Start: 100, Size: 50}) // contiguous: merges
	fm.Append(FileRef{Container: c1, Start: 200, Size: 10}) // gap: new ref
	fm.Append(FileRef{Container: c2, Start: 210, Size: 10}) // other container: new ref
	if len(fm.Refs) != 3 {
		t.Fatalf("refs = %d, want 3 (%+v)", len(fm.Refs), fm.Refs)
	}
	if fm.Refs[0].Size != 150 {
		t.Errorf("merged ref size = %d, want 150", fm.Refs[0].Size)
	}
	if fm.TotalBytes() != 170 {
		t.Errorf("TotalBytes = %d, want 170", fm.TotalBytes())
	}
}

func TestFileManifestRoundTrip(t *testing.T) {
	fm := &FileManifest{File: "f"}
	fm.Append(FileRef{Container: sumOf("a"), Start: 5, Size: 10})
	fm.Append(FileRef{Container: sumOf("b"), Start: 0, Size: 20})
	data, err := fm.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != fm.ByteSize() {
		t.Errorf("encoded %d bytes, ByteSize %d", len(data), fm.ByteSize())
	}
	back, err := DecodeFileManifest("f", data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fm.Refs, back.Refs) {
		t.Error("file manifest does not round-trip")
	}
	if _, err := DecodeFileManifest("f", data[:27]); err == nil {
		t.Error("truncated file manifest accepted")
	}
	bad := &FileManifest{File: "f", Refs: []FileRef{{Start: -1, Size: 10}}}
	if _, err := bad.Encode(); err == nil {
		t.Error("negative start accepted")
	}
}

func TestStoreChunkAndManifestFlow(t *testing.T) {
	disk := simdisk.New()
	s := New(disk, FormatMHD)
	name := s.NextName()
	if name2 := s.NextName(); name2 == name {
		t.Fatal("NextName returned a duplicate")
	}
	payload := []byte("0123456789abcdef")
	if err := s.SealDiskChunk(name, payload); err != nil {
		t.Fatal(err)
	}
	if sz, ok := s.DiskChunkSize(name); !ok || sz != int64(len(payload)) {
		t.Errorf("DiskChunkSize = %d,%v", sz, ok)
	}
	got, err := s.ReadDiskChunkRange(name, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Bytes()) != "456789" {
		t.Errorf("ReadDiskChunkRange = %q", got)
	}

	m := NewManifest(name, FormatMHD)
	m.Append(Entry{Hash: sumOf("h1"), Start: 0, Size: 8, Kind: KindHook})
	m.Append(Entry{Hash: sumOf("h2"), Start: 8, Size: 8, Kind: KindMerged})
	if err := s.CreateManifest(m); err != nil {
		t.Fatal(err)
	}
	back, err := s.ReadManifest(name)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Entries, back.Entries) {
		t.Error("manifest round-trip through store failed")
	}

	// Write-back of a clean manifest costs nothing.
	before := disk.Counters().Accesses()
	if err := s.WriteBackManifest(back); err != nil {
		t.Fatal(err)
	}
	if disk.Counters().Accesses() != before {
		t.Error("clean write-back performed a disk access")
	}
	back.Splice(1, Entry{Hash: sumOf("h2a"), Start: 8, Size: 8, Kind: KindPlain})
	if err := s.WriteBackManifest(back); err != nil {
		t.Fatal(err)
	}
	if back.Dirty() {
		t.Error("write-back should mark clean")
	}
	again, _ := s.ReadManifest(name)
	if _, ok := again.Lookup(sumOf("h2a")); !ok {
		t.Error("spliced entry not persisted")
	}
}

func TestStoreHooks(t *testing.T) {
	s := New(simdisk.New(), FormatMHD)
	h, m1, m2 := sumOf("hook"), sumOf("m1"), sumOf("m2")
	if s.HookExists(h) {
		t.Error("hook exists before creation")
	}
	if err := s.CreateHook(h, m1); err != nil {
		t.Fatal(err)
	}
	if !s.HookExists(h) {
		t.Error("hook missing after creation")
	}
	targets, err := s.ReadHook(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 1 || targets[0] != m1 {
		t.Errorf("targets = %v", targets)
	}
	// Sparse-style multi-target hooks with LRU cap.
	if err := s.AddHookTarget(h, m2, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.AddHookTarget(h, m2, 2); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := s.AddHookTarget(h, sumOf("m3"), 2); err != nil {
		t.Fatal(err)
	}
	targets, _ = s.ReadHook(h)
	if len(targets) != 2 || targets[0] != m2 || targets[1] != sumOf("m3") {
		t.Errorf("after cap: targets = %v, want [m2 m3]", targets)
	}
	if err := s.AddHookTarget(h, m1, 0); err == nil {
		t.Error("maxTargets 0 accepted")
	}
}

func TestStoreRestoreFile(t *testing.T) {
	s := New(simdisk.New(), FormatBasic)
	c1, c2 := s.NextName(), s.NextName()
	s.SealDiskChunk(c1, []byte("AAAABBBB"))
	s.SealDiskChunk(c2, []byte("CCCC"))
	fm := &FileManifest{File: "file1"}
	fm.Append(FileRef{Container: c1, Start: 4, Size: 4}) // BBBB
	fm.Append(FileRef{Container: c2, Start: 0, Size: 4}) // CCCC
	fm.Append(FileRef{Container: c1, Start: 0, Size: 4}) // AAAA
	if err := s.WriteFileManifest(fm); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := s.RestoreFile("file1", &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != "BBBBCCCCAAAA" {
		t.Errorf("restored %q", out.String())
	}
	if err := s.RestoreFile("absent", &out); err == nil {
		t.Error("restore of unknown file succeeded")
	}
}

func TestKindString(t *testing.T) {
	if KindPlain.String() != "plain" || KindHook.String() != "hook" || KindMerged.String() != "merged" {
		t.Error("kind names wrong")
	}
	if EntryKind(9).String() == "" {
		t.Error("unknown kind String empty")
	}
}
