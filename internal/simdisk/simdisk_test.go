package simdisk

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"
)

func TestCreateReadRoundTrip(t *testing.T) {
	d := New()
	data := []byte("chunk payload")
	if err := d.Create(Data, "c1", data); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read(Data, "c1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("Read = %q, want %q", got, data)
	}
}

func TestCreateRejectsDuplicates(t *testing.T) {
	d := New()
	if err := d.Create(Hook, "h1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := d.Create(Hook, "h1", []byte("y")); err == nil {
		t.Error("duplicate Create succeeded; hooks must be immutable")
	}
}

func TestWriteRequiresExistence(t *testing.T) {
	d := New()
	if err := d.Write(Manifest, "m1", []byte("v2")); err == nil {
		t.Error("Write to absent object succeeded")
	}
	d.Create(Manifest, "m1", []byte("v1"))
	if err := d.Write(Manifest, "m1", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, _ := d.Read(Manifest, "m1")
	if string(got) != "v2" {
		t.Errorf("after Write, content = %q", got)
	}
}

func TestReadIsolation(t *testing.T) {
	// Mutating a buffer Read returned must not corrupt the stored object,
	// and mutating the input buffer after Create must not either. (ReadRange
	// returns a view instead: TestReadRangeView.)
	d := New()
	src := []byte("immutable")
	d.Create(Data, "c", src)
	src[0] = 'X'
	got1, _ := d.Read(Data, "c")
	if string(got1) != "immutable" {
		t.Error("Create did not copy its input")
	}
	got1[0] = 'Y'
	got2, _ := d.Read(Data, "c")
	if string(got2) != "immutable" {
		t.Error("Read returned an aliased buffer")
	}
}

func TestReadRange(t *testing.T) {
	d := New()
	d.Create(Data, "c", []byte("0123456789"))
	got, err := d.ReadRange(Data, "c", 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "3456" {
		t.Errorf("ReadRange = %q, want 3456", got)
	}
	for _, bad := range [][2]int64{{-1, 2}, {0, 11}, {8, 3}, {2, -1}} {
		if _, err := d.ReadRange(Data, "c", bad[0], bad[1]); err == nil {
			t.Errorf("ReadRange(%d,%d) succeeded, want error", bad[0], bad[1])
		}
	}
	if _, err := d.ReadRange(Data, "absent", 0, 1); err == nil {
		t.Error("ReadRange of absent object succeeded")
	}
}

// TestReadRangeOverflow: a range whose end wraps past MaxInt64 is outside
// the object, not a slice expression that panics.
func TestReadRangeOverflow(t *testing.T) {
	d := New()
	d.Create(Data, "c", []byte("0123456789"))
	for _, bad := range [][2]int64{
		{2, math.MaxInt64}, {math.MaxInt64, 1}, {math.MaxInt64, math.MaxInt64},
		{1 << 62, 1 << 62}, {11, 0}, {math.MinInt64, 5},
	} {
		if got, err := d.ReadRange(Data, "c", bad[0], bad[1]); err == nil {
			t.Errorf("ReadRange(%d,%d) = %d bytes, want error", bad[0], bad[1], len(got))
		}
	}
	if c := d.Counters(); c.Reads.Get(Data) != 0 || c.BytesRead.Get(Data) != 0 {
		t.Errorf("refused ranges were charged: %d reads, %d bytes", c.Reads.Get(Data), c.BytesRead.Get(Data))
	}
}

// TestReadRangeView is ReadRange's contract: the result is a view of the
// stored bytes whose capacity ends at its length, so an append reallocates,
// and since objects are replaced, never modified, a view keeps its bytes
// whatever happens to the object after it was taken.
func TestReadRangeView(t *testing.T) {
	const content = "0123456789"
	d := New()
	d.Create(Data, "c", []byte(content))
	v, err := d.ReadRange(Data, "c", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 3 || cap(v) != len(v) {
		t.Fatalf("view len %d cap %d, want 3/3", len(v), cap(v))
	}
	_ = append(v, "XYZ"...)
	if got, _ := d.Read(Data, "c"); string(got) != content {
		t.Fatalf("append to a view reached the stored object: %q", got)
	}

	for _, step := range []struct {
		what string
		do   func() error
	}{
		{"FlipStoredBit", func() error { return d.FlipStoredBit(Data, "c", 8*5) }},
		{"TruncateStored", func() error { return d.TruncateStored(Data, "c", 4) }},
		{"Write", func() error { return d.Write(Data, "c", []byte("abcdefghij")) }},
		{"Delete", func() error { return d.Delete(Data, "c") }},
	} {
		before, err := d.ReadRange(Data, "c", 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		want := string(before)
		if err := step.do(); err != nil {
			t.Fatal(err)
		}
		if string(before) != want || string(v) != "234" {
			t.Errorf("%s changed views taken before it: %q (want %q), %q (want \"234\")",
				step.what, before, want, v)
		}
	}
}

// TestReadFaultsNeverReachStore: a read transform, even one that writes
// into the bytes it is given, damages only what that read returns — never
// the stored object or a view of it.
func TestReadFaultsNeverReachStore(t *testing.T) {
	const content = "0123456789"
	d := New()
	d.Create(Data, "c", []byte(content))
	held, _ := d.ReadRange(Data, "c", 0, 10)
	d.SetReadTransform(func(_ Category, _ string, data []byte) []byte {
		for i := range data {
			data[i] = 'X'
		}
		return data
	})
	for _, read := range []func() ([]byte, error){
		func() ([]byte, error) { return d.Read(Data, "c") },
		func() ([]byte, error) { return d.ReadRange(Data, "c", 1, 8) },
	} {
		if got, err := read(); err != nil || len(got) == 0 || got[0] != 'X' {
			t.Fatalf("transform did not run: %q, %v", got, err)
		}
	}
	d.SetReadTransform(nil)
	if got, _ := d.Read(Data, "c"); string(got) != content || string(held) != content {
		t.Fatalf("read faults reached the store: stored %q, view %q", got, held)
	}
}

func TestCountersMatchOperations(t *testing.T) {
	d := New()
	d.Create(Data, "c1", make([]byte, 100))
	d.Create(Hook, "h1", make([]byte, 20))
	d.Create(Manifest, "m1", make([]byte, 36))
	d.Write(Manifest, "m1", make([]byte, 72))
	d.Read(Manifest, "m1")
	d.Exists(Hook, "h1")
	d.Exists(Hook, "absent")

	c := d.Counters()
	if c.Creates.Get(Data) != 1 || c.Creates.Get(Hook) != 1 || c.Creates.Get(Manifest) != 1 {
		t.Errorf("creates = %+v", c.Creates)
	}
	if c.Writes.Get(Manifest) != 1 {
		t.Errorf("manifest writes = %d, want 1", c.Writes.Get(Manifest))
	}
	if c.Reads.Get(Manifest) != 1 {
		t.Errorf("manifest reads = %d, want 1", c.Reads.Get(Manifest))
	}
	if c.ExistsQueries.Get(Hook) != 2 {
		t.Errorf("hook exists queries = %d, want 2", c.ExistsQueries.Get(Hook))
	}
	if c.MissedLookups.Get(Hook) != 1 {
		t.Errorf("missed lookups = %d, want 1", c.MissedLookups.Get(Hook))
	}
	if c.BytesWritten.Get(Manifest) != 36+72 {
		t.Errorf("manifest bytes written = %d, want 108", c.BytesWritten.Get(Manifest))
	}
	// Total accesses: 3 creates + 1 write + 1 read + 2 exists = 7.
	if c.Accesses() != 7 {
		t.Errorf("accesses = %d, want 7", c.Accesses())
	}
}

func TestInodeAndMetadataAccounting(t *testing.T) {
	d := New()
	d.Create(Data, "c1", make([]byte, 1000))
	d.Create(Hook, "h1", make([]byte, 20))
	d.Create(Manifest, "m1", make([]byte, 74))
	d.Create(FileManifest, "f1", make([]byte, 28))

	if d.TotalObjects() != 4 {
		t.Errorf("TotalObjects = %d, want 4", d.TotalObjects())
	}
	if d.InodeOverheadBytes() != 4*InodeBytes {
		t.Errorf("InodeOverheadBytes = %d", d.InodeOverheadBytes())
	}
	want := int64(20+74+28) + 4*InodeBytes
	if d.MetadataBytes() != want {
		t.Errorf("MetadataBytes = %d, want %d", d.MetadataBytes(), want)
	}
	if d.BytesStored(Data) != 1000 {
		t.Errorf("BytesStored(Data) = %d", d.BytesStored(Data))
	}
	if d.ObjectCount(Hook) != 1 {
		t.Errorf("ObjectCount(Hook) = %d", d.ObjectCount(Hook))
	}
}

func TestSizeDoesNotCountAccess(t *testing.T) {
	d := New()
	d.Create(Data, "c", make([]byte, 50))
	before := d.Counters().Accesses()
	if sz, ok := d.Size(Data, "c"); !ok || sz != 50 {
		t.Errorf("Size = %d,%v", sz, ok)
	}
	if _, ok := d.Size(Data, "absent"); ok {
		t.Error("Size of absent object reported ok")
	}
	if d.Counters().Accesses() != before {
		t.Error("Size counted as a disk access")
	}
}

func TestFailureInjection(t *testing.T) {
	d := New()
	boom := errors.New("media error")
	d.Create(Data, "ok", []byte("x"))
	d.SetFailureHook(func(op Op, cat Category, name string) error {
		if op == OpRead && name == "ok" {
			return boom
		}
		return nil
	})
	if _, err := d.Read(Data, "ok"); !errors.Is(err, boom) {
		t.Errorf("injected failure not surfaced: %v", err)
	}
	// Other ops unaffected.
	if err := d.Create(Data, "ok2", []byte("y")); err != nil {
		t.Errorf("unrelated op failed: %v", err)
	}
	d.SetFailureHook(nil)
	if _, err := d.Read(Data, "ok"); err != nil {
		t.Errorf("after clearing hook: %v", err)
	}
}

func TestInvalidCategory(t *testing.T) {
	d := New()
	if err := d.Create(Category(99), "x", nil); err == nil {
		t.Error("invalid category accepted")
	}
	if Category(99).String() == "" {
		t.Error("invalid category String empty")
	}
	if Data.String() != "data" || Hook.String() != "hook" {
		t.Error("category names wrong")
	}
	if OpRead.String() != "read" || Op(99).String() == "" {
		t.Error("op names wrong")
	}
}

func TestCostModelCopyVsDedupe(t *testing.T) {
	m := Default2013()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	const in = int64(1 << 30)
	copyT := m.CopyTime(in)
	if copyT <= 0 {
		t.Fatal("CopyTime must be positive")
	}
	// A dedup run that chunks and hashes all input and does some metadata
	// I/O must be slower than a plain copy minus the saved writes: with
	// these rates the ratio lands in the paper's 0.2–0.5 band.
	var c Counters
	c.Creates[Data] = 200
	c.Creates[Hook] = 10_000
	c.Reads[Manifest] = 5_000
	c.BytesWritten[Data] = in / 4 // DER 4
	ratio := m.ThroughputRatio(in, in, in, c)
	if ratio <= 0.1 || ratio >= 1 {
		t.Errorf("ThroughputRatio = %.3f, want within (0.1, 1)", ratio)
	}
}

func TestCostModelMoreSeeksIsSlower(t *testing.T) {
	m := Default2013()
	const in = int64(100 << 20)
	var few, many Counters
	few.Reads[Manifest] = 10
	many.Reads[Manifest] = 10_000
	if m.ThroughputRatio(in, in, in, few) <= m.ThroughputRatio(in, in, in, many) {
		t.Error("more manifest loads should lower the throughput ratio")
	}
}

func TestCostModelValidation(t *testing.T) {
	bad := Default2013()
	bad.HashingRate = 0
	if bad.Validate() == nil {
		t.Error("zero hashing rate accepted")
	}
	bad = Default2013()
	bad.SeekLatency = -time.Millisecond
	if bad.Validate() == nil {
		t.Error("negative seek accepted")
	}
}

func TestDiskTimeComponents(t *testing.T) {
	m := CostModel{
		SeekLatency:    time.Millisecond,
		ReadBandwidth:  1e6,
		WriteBandwidth: 1e6,
		ChunkingRate:   1e6,
		HashingRate:    1e6,
	}
	var c Counters
	c.Reads[Data] = 2
	c.BytesRead[Data] = 1e6 // 1 second of transfer
	got := m.DiskTime(c)
	want := 2*time.Millisecond + time.Second
	if got != want {
		t.Errorf("DiskTime = %v, want %v", got, want)
	}
	if cpu := m.CPUTime(1e6, 2e6); cpu != 3*time.Second {
		t.Errorf("CPUTime = %v, want 3s", cpu)
	}
}

func TestNames(t *testing.T) {
	d := New()
	d.Create(Data, "a", []byte("1"))
	d.Create(Data, "b", []byte("2"))
	d.Create(Hook, "h", []byte("3"))
	names := d.Names(Data)
	if len(names) != 2 {
		t.Fatalf("Names(Data) = %v", names)
	}
	set := map[string]bool{names[0]: true, names[1]: true}
	if !set["a"] || !set["b"] {
		t.Errorf("Names(Data) = %v, want a and b", names)
	}
	if len(d.Names(Hook)) != 1 || len(d.Names(Manifest)) != 0 {
		t.Error("per-category name listing wrong")
	}
	if d.Names(Category(99)) != nil {
		t.Error("invalid category should list nil")
	}
	// Names must not count as disk accesses.
	before := d.Counters().Accesses()
	d.Names(Data)
	if d.Counters().Accesses() != before {
		t.Error("Names counted as an access")
	}
}

func TestDelete(t *testing.T) {
	d := New()
	d.Create(Data, "x", []byte("abc"))
	if err := d.Delete(Data, "x"); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Size(Data, "x"); ok {
		t.Error("object still present after Delete")
	}
	if err := d.Delete(Data, "x"); err == nil {
		t.Error("double delete succeeded")
	}
	if d.Counters().Deletes.Get(Data) != 1 {
		t.Errorf("deletes = %d, want 1", d.Counters().Deletes.Get(Data))
	}
	if d.Counters().Accesses() < 2 { // create + delete
		t.Error("delete not counted as an access")
	}
}
