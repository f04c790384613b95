package core

import (
	"bytes"
	"testing"

	"mhdedup/internal/chunker"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
)

// hhrFixture builds a Dedup whose disk holds one DiskChunk of given bytes
// with a single-entry manifest covering it as one merged region — the
// minimal stage on which to exercise the HHR split paths directly. The
// DiskChunk is sealed as three runs, as an ingest seals the runs of the
// slabs its chunks were read into, so every reload straddles run
// boundaries.
func hhrFixture(t *testing.T, cfg Config, content []byte) (*Dedup, *store.Manifest) {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	name := d.Store.NextName()
	a, b := len(content)/3, 2*len(content)/3
	runs := [][]byte{bytes.Clone(content[:a]), bytes.Clone(content[a:b]), bytes.Clone(content[b:])}
	if err := d.Store.SealDiskChunk(name, runs...); err != nil {
		t.Fatal(err)
	}
	m := store.NewManifest(name, store.FormatMHD)
	m.Append(store.Entry{
		Hash:  hashutil.SumBytes(content),
		Start: 0,
		Size:  int64(len(content)),
		Kind:  store.KindMerged,
	})
	if err := d.Store.CreateManifest(m); err != nil {
		t.Fatal(err)
	}
	return d, m
}

func mkPending(data []byte, chunkSize int) []pchunk {
	var out []pchunk
	for off := 0; off < len(data); off += chunkSize {
		end := off + chunkSize
		if end > len(data) {
			end = len(data)
		}
		out = append(out, pchunk{Chunk: chunker.Chunk{Data: data[off:end]}, hash: hashutil.SumBytes(data[off:end])})
	}
	return out
}

func TestHHRBackwardSplitsAtByteBoundary(t *testing.T) {
	cfg := testConfig()
	old := randBytes(901, 4096) // one merged 4 KiB region
	d, m := hhrFixture(t, cfg, old)

	// Pending buffer: 2 mismatching chunks followed by 2 chunks matching
	// old's suffix (the Fig 6 shape: N3 then duplicate 4,5).
	suffix := old[2048:]
	pending := append(mkPending(randBytes(902, 2048), 1024), mkPending(suffix, 1024)...)
	f := &fileState{name: "f", chunkName: d.Store.NextName(), pending: pending}
	f.slots = make([]slotState, len(pending))
	for i := range f.pending {
		f.pending[i].slot = i
	}

	shift, err := d.hhrBackward(f, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if shift != 2 { // [remainder merged][edge plain][shared plain] = 3 entries, +2
		t.Errorf("shift = %d, want 2", shift)
	}
	if len(m.Entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(m.Entries))
	}
	r, b, s := m.Entries[0], m.Entries[1], m.Entries[2]
	if r.Kind != store.KindMerged || b.Kind != store.KindPlain || s.Kind != store.KindPlain {
		t.Errorf("kinds = %v/%v/%v, want merged/plain/plain", r.Kind, b.Kind, s.Kind)
	}
	if s.Size != 2048 {
		t.Errorf("shared region size = %d, want 2048", s.Size)
	}
	if b.Size != 1024 { // sized like the first mismatching pending chunk
		t.Errorf("edge size = %d, want 1024", b.Size)
	}
	if r.Start != 0 || b.Start != r.Size || s.Start != r.Size+b.Size {
		t.Error("split pieces do not tile the original region")
	}
	if s.Hash != hashutil.SumBytes(old[2048:]) {
		t.Error("shared-region hash mismatch")
	}
	// The two matching pending chunks were consumed as duplicates.
	if len(f.pending) != 2 {
		t.Errorf("pending = %d chunks, want 2", len(f.pending))
	}
	if !f.slots[2].resolved || !f.slots[2].dup || !f.slots[3].dup {
		t.Error("matched chunks not resolved as duplicates")
	}
	if f.slots[2].ref.Start != 2048 {
		t.Errorf("dup ref start = %d, want 2048", f.slots[2].ref.Start)
	}
	if !m.Dirty() {
		t.Error("HHR must dirty the manifest")
	}
	if d.Count.HHROps.Load() != 1 {
		t.Errorf("HHROps = %d, want 1", d.Count.HHROps.Load())
	}
}

func TestHHRForwardSplitsPrefix(t *testing.T) {
	cfg := testConfig()
	old := randBytes(903, 4096)
	d, m := hhrFixture(t, cfg, old)

	// Prefetched chunks: 2 matching old's prefix, then a mismatch.
	pre := append(mkPending(old[:2048], 1024), mkPending(randBytes(904, 1024), 1024)...)
	f := &fileState{name: "f", chunkName: d.Store.NextName()}
	for i := range pre {
		pre[i].slot = i
		f.slots = append(f.slots, slotState{})
	}

	consumed, err := d.hhrForward(f, m, 0, pre)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != 2 {
		t.Errorf("consumed = %d, want 2", consumed)
	}
	if len(m.Entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(m.Entries))
	}
	s, b, r := m.Entries[0], m.Entries[1], m.Entries[2]
	if s.Kind != store.KindPlain || s.Size != 2048 || s.Start != 0 {
		t.Errorf("shared prefix entry wrong: %+v", s)
	}
	if b.Kind != store.KindPlain || b.Size != 1024 {
		t.Errorf("edge entry wrong: %+v", b)
	}
	if r.Kind != store.KindMerged || r.Size != 1024 {
		t.Errorf("remainder entry wrong: %+v", r)
	}
	if !f.slots[0].dup || !f.slots[1].dup || f.slots[2].resolved {
		t.Error("slot resolution wrong after forward HHR")
	}
}

func TestHHRRefusesNonMergedEntries(t *testing.T) {
	cfg := testConfig()
	old := randBytes(905, 2048)
	d, m := hhrFixture(t, cfg, old)
	m.Entries[0].Kind = store.KindHook // hooks must never be re-chunked
	f := &fileState{name: "f", pending: mkPending(old[1024:], 1024)}
	before := d.Count.HHRDiskAccesses.Load()
	shift, err := d.hhrBackward(f, m, 0)
	if err != nil || shift != 0 {
		t.Errorf("hook entry was processed: shift=%d err=%v", shift, err)
	}
	if d.Count.HHRDiskAccesses.Load() != before {
		t.Error("hook entry caused a chunk reload")
	}
	if len(m.Entries) != 1 || m.Dirty() {
		t.Error("hook entry was modified")
	}
}

func TestHHRNoMatchNoEdgeLeavesEntryIntact(t *testing.T) {
	cfg := testConfig()
	cfg.DisableEdgeHash = true
	old := randBytes(906, 2048)
	d, m := hhrFixture(t, cfg, old)
	// Pending shares nothing with old.
	f := &fileState{name: "f", pending: mkPending(randBytes(907, 2048), 1024)}
	shift, err := d.hhrBackward(f, m, 0)
	if err != nil || shift != 0 {
		t.Fatalf("shift=%d err=%v", shift, err)
	}
	if len(m.Entries) != 1 || m.Dirty() {
		t.Error("no-match case must leave the manifest untouched (EdgeHash off)")
	}
	// The reload itself is still charged — that is the repeat cost the
	// EdgeHash exists to stop.
	if d.Count.HHRDiskAccesses.Load() == 0 {
		t.Error("byte comparison requires a reload even when nothing matches")
	}
}

func TestHHRNoMatchWithEdgePlantsGuard(t *testing.T) {
	cfg := testConfig()
	old := randBytes(908, 2048)
	d, m := hhrFixture(t, cfg, old)
	f := &fileState{name: "f", pending: mkPending(randBytes(909, 2048), 1024)}
	shift, err := d.hhrBackward(f, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if shift != 1 || len(m.Entries) != 2 {
		t.Fatalf("expected [remainder][edge] split, got %d entries", len(m.Entries))
	}
	edge := m.Entries[1]
	if edge.Kind != store.KindPlain || edge.Size != 1024 {
		t.Errorf("edge guard wrong: %+v", edge)
	}
	// A second identical attempt stops at the plain edge without reload.
	before := d.Count.HHRDiskAccesses.Load()
	if _, err := d.hhrBackward(f, m, 1); err != nil {
		t.Fatal(err)
	}
	if d.Count.HHRDiskAccesses.Load() != before {
		t.Error("edge guard did not prevent the repeat reload")
	}
}

func TestHHRWholeEntryMatchedViaBytes(t *testing.T) {
	// Pending chunk boundaries that don't sum to the entry size force the
	// byte path even when the whole entry is duplicate.
	cfg := testConfig()
	old := randBytes(910, 3000)
	d, m := hhrFixture(t, cfg, old)
	// Chunks of 1000 bytes: 3 chunks exactly covering old.
	pending := mkPending(old, 1000)
	f := &fileState{name: "f", chunkName: d.Store.NextName(), pending: pending}
	for i := range f.pending {
		f.pending[i].slot = i
		f.slots = append(f.slots, slotState{})
	}
	if _, err := d.hhrBackward(f, m, 0); err != nil {
		t.Fatal(err)
	}
	if len(f.pending) != 0 {
		t.Errorf("whole-match left %d pending chunks", len(f.pending))
	}
	if len(m.Entries) != 1 || m.Entries[0].Kind != store.KindPlain {
		t.Errorf("whole-match should yield one plain entry, got %+v", m.Entries)
	}
	if m.Entries[0].Size != 3000 {
		t.Errorf("entry size = %d", m.Entries[0].Size)
	}
}

// TestHHRCorruptMergedEntryFailsIngest: DecodeManifest does not bound an
// MHD entry's Start and Size, and HHR hands them straight to the container
// read. A merged entry whose Start and Size are both 2^62 — a range whose
// end wraps past MaxInt64 — must fail the ingest that reloads it with an
// error, not panic slicing the container.
func TestHHRCorruptMergedEntryFailsIngest(t *testing.T) {
	cfg := testConfig()
	base := randBytes(912, 64<<10)
	d := ingest(t, cfg, map[string][]byte{"gen1": base}, []string{"gen1"})
	disk := d.Store.Disk()
	corrupted := 0
	for _, hex := range disk.Names(simdisk.Manifest) {
		name, err := hashutil.ParseHex(hex)
		if err != nil {
			t.Fatal(err)
		}
		m, err := d.Store.ReadManifest(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range m.Entries {
			if m.Entries[i].Kind == store.KindMerged {
				m.Entries[i].Start, m.Entries[i].Size = 1<<62, 1<<62
				corrupted++
			}
		}
		if err := disk.Write(simdisk.Manifest, hex, m.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	if corrupted == 0 {
		t.Fatal("the first generation stored no merged entry")
	}

	d2, err := NewOnDisk(cfg, disk)
	if err != nil {
		t.Fatal(err)
	}
	gen2 := append([]byte(nil), base...)
	copy(gen2[20<<10:], randBytes(913, 2<<10))
	reloads := d2.Count.HHRDiskAccesses.Load()
	if err := d2.PutFile("gen2", bytes.NewReader(gen2)); err == nil {
		t.Fatalf("ingest over %d corrupt merged entries succeeded (%d HHR reloads)",
			corrupted, d2.Count.HHRDiskAccesses.Load()-reloads)
	}
}

func TestHHRSplitPiecesRestoreConcatenation(t *testing.T) {
	// Whatever the split, the pieces must tile the region so restores that
	// reference them reproduce the original bytes.
	cfg := testConfig()
	old := randBytes(911, 8192)
	d, m := hhrFixture(t, cfg, old)
	pending := mkPending(old[5000:], 700) // unaligned suffix match
	f := &fileState{name: "f", chunkName: d.Store.NextName(), pending: pending}
	for i := range f.pending {
		f.pending[i].slot = i
		f.slots = append(f.slots, slotState{})
	}
	if _, err := d.hhrBackward(f, m, 0); err != nil {
		t.Fatal(err)
	}
	var rebuilt []byte
	for _, e := range m.Entries {
		runs, err := d.Store.ReadDiskChunkRange(m.ContainerOf(e), e.Start, e.Size)
		if err != nil {
			t.Fatal(err)
		}
		part := runs.Bytes()
		if hashutil.SumBytes(part) != e.Hash {
			t.Error("entry hash does not match its bytes")
		}
		rebuilt = append(rebuilt, part...)
	}
	if !bytes.Equal(rebuilt, old) {
		t.Error("split pieces do not reconstruct the original region")
	}
}
