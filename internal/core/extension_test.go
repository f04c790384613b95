package core

import (
	"bytes"
	"io"
	"testing"

	"mhdedup/internal/chunker"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/store"
)

// extFixture stores `content` as one DiskChunk described by a manifest with
// the given entry layout (sizes tiling the content; kinds aligned), giving
// BME/FME a controlled manifest to extend over.
func extFixture(t *testing.T, cfg Config, content []byte, sizes []int64, kinds []store.EntryKind) (*Dedup, *store.Manifest) {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	name := d.st.NextName()
	if err := d.st.WriteDiskChunk(name, content); err != nil {
		t.Fatal(err)
	}
	m := store.NewManifest(name, store.FormatMHD)
	var off int64
	for i, sz := range sizes {
		m.Append(store.Entry{
			Hash:  hashutil.SumBytes(content[off : off+sz]),
			Start: off,
			Size:  sz,
			Kind:  kinds[i],
		})
		off += sz
	}
	if off != int64(len(content)) {
		t.Fatalf("fixture sizes tile %d of %d bytes", off, len(content))
	}
	if err := d.st.CreateManifest(m); err != nil {
		t.Fatal(err)
	}
	return d, m
}

func TestBMEConsumesAlignedTail(t *testing.T) {
	// Manifest: [1024 hook][3072 merged][1024 hook]. Pending holds chunks
	// exactly covering the merged region (1024-byte chunks); the hit is on
	// the final hook. BME must consume the whole merged region by rehash,
	// then the leading hook, with no HHR.
	content := randBytes(950, 5120)
	cfg := testConfig()
	d, m := extFixture(t, cfg, content,
		[]int64{1024, 3072, 1024},
		[]store.EntryKind{store.KindHook, store.KindMerged, store.KindHook})

	pending := mkPending(content[:4096], 1024) // 4 chunks: hook + merged region
	f := &fileState{name: "f", chunkName: d.st.NextName(), pending: pending}
	for i := range f.pending {
		f.pending[i].slot = i
		f.slots = append(f.slots, slotState{size: 1024})
	}
	shift, err := d.bme(f, m, 2) // hit at the trailing hook
	if err != nil {
		t.Fatal(err)
	}
	if shift != 0 {
		t.Errorf("aligned BME should not splice (shift=%d)", shift)
	}
	if len(f.pending) != 0 {
		t.Errorf("pending = %d, want 0 (everything matched)", len(f.pending))
	}
	if d.stats.HHROps.Load() != 0 {
		t.Error("aligned match must not trigger HHR")
	}
	for i := 0; i < 4; i++ {
		if !f.slots[i].dup {
			t.Errorf("slot %d not marked duplicate", i)
		}
	}
	// Refs point into the old chunk at the right offsets.
	if f.slots[0].ref.Start != 0 || f.slots[1].ref.Start != 1024 {
		t.Error("BME refs misplaced")
	}
}

func TestBMEStopsAtMismatchWithoutPending(t *testing.T) {
	content := randBytes(951, 2048)
	cfg := testConfig()
	d, m := extFixture(t, cfg, content,
		[]int64{1024, 1024},
		[]store.EntryKind{store.KindMerged, store.KindHook})
	f := &fileState{name: "f"}
	shift, err := d.bme(f, m, 1)
	if err != nil || shift != 0 {
		t.Errorf("empty pending: shift=%d err=%v", shift, err)
	}
	if d.stats.HHRDiskAccesses.Load() != 0 {
		t.Error("empty pending must not reload anything")
	}
}

// sliceChunker replays fixed chunks, then ends with err (io.EOF when nil).
type sliceChunker struct {
	chunks []chunker.Chunk
	err    error
	i      int
}

func (s *sliceChunker) Next() (chunker.Chunk, error) {
	if s.i >= len(s.chunks) {
		if s.err != nil {
			return chunker.Chunk{}, s.err
		}
		return chunker.Chunk{}, io.EOF
	}
	c := s.chunks[s.i]
	s.i++
	return c, nil
}

// streamFile returns a fresh fileState whose stream continues with chunks.
func streamFile(t *testing.T, d *Dedup, chunks ...chunker.Chunk) *fileState {
	f := &fileState{name: "f", chunkName: d.st.NextName(),
		src: newChunkPipeline(&sliceChunker{chunks: chunks}), scanned: true}
	t.Cleanup(f.src.stop)
	f.manifest = store.NewManifest(f.chunkName, store.FormatMHD)
	return f
}

func TestFMEExtendsForwardAcrossEntries(t *testing.T) {
	// Manifest: [hook 1024][merged 2048][hook 1024]. The incoming stream
	// matches everything after the hit on the first hook; FME must resolve
	// all of it as duplicates with zero HHR.
	content := randBytes(952, 4096)
	cfg := testConfig()
	d, m := extFixture(t, cfg, content,
		[]int64{1024, 2048, 1024},
		[]store.EntryKind{store.KindHook, store.KindMerged, store.KindHook})

	// Stream chunks: 1024-byte pieces of the content after the first hook.
	var chunks []chunker.Chunk
	for off := 1024; off < 4096; off += 1024 {
		chunks = append(chunks, chunker.Chunk{Data: content[off : off+1024]})
	}
	f := streamFile(t, d, chunks...)

	if err := d.fme(f, m, 0); err != nil {
		t.Fatal(err)
	}
	if d.stats.HHROps.Load() != 0 {
		t.Error("fully matching forward extension must not trigger HHR")
	}
	if len(f.replay) != 0 {
		t.Errorf("replay = %d chunks, want 0", len(f.replay))
	}
	if len(f.slots) != 3 {
		t.Fatalf("slots = %d, want 3", len(f.slots))
	}
	for i, s := range f.slots {
		if !s.resolved || !s.dup {
			t.Errorf("slot %d not resolved as dup", i)
		}
	}
}

func TestFMEPushesUnmatchedChunksToReplay(t *testing.T) {
	content := randBytes(953, 2048)
	cfg := testConfig()
	d, m := extFixture(t, cfg, content,
		[]int64{1024, 1024},
		[]store.EntryKind{store.KindHook, store.KindHook})

	// Stream: one chunk that does NOT match entry 1.
	foreign := randBytes(954, 1024)
	f := streamFile(t, d, chunker.Chunk{Data: foreign})

	if err := d.fme(f, m, 0); err != nil {
		t.Fatal(err)
	}
	if len(f.replay) != 1 || !bytes.Equal(f.replay[0].data, foreign) {
		t.Fatalf("unmatched prefetch not replayed: %d items", len(f.replay))
	}
	if f.slots[0].resolved {
		t.Error("unmatched chunk must stay unresolved for normal processing")
	}
}

func TestExtendMatchFullPath(t *testing.T) {
	// End-to-end extendMatch: pending tail matches backwards, stream
	// matches forwards, the hit chunk resolves in place.
	content := randBytes(955, 3072)
	cfg := testConfig()
	d, m := extFixture(t, cfg, content,
		[]int64{1024, 1024, 1024},
		[]store.EntryKind{store.KindHook, store.KindHook, store.KindHook})

	// Stream continues with entry 2's bytes.
	f := streamFile(t, d, chunker.Chunk{Data: content[2048:]})
	// Pending: the chunk before the hit.
	pc0 := pchunk{data: content[:1024], hash: hashutil.SumBytes(content[:1024]), slot: 0}
	f.slots = append(f.slots, slotState{size: 1024})
	f.pending = []pchunk{pc0}
	// Hit chunk: entry 1.
	hit := pchunk{data: content[1024:2048], hash: hashutil.SumBytes(content[1024:2048]), slot: 1}
	f.slots = append(f.slots, slotState{size: 1024})

	if err := d.extendMatch(f, m, 1, hit); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !f.slots[i].resolved || !f.slots[i].dup {
			t.Fatalf("slot %d unresolved after extendMatch", i)
		}
	}
	if f.slots[0].ref.Start != 0 || f.slots[1].ref.Start != 1024 || f.slots[2].ref.Start != 2048 {
		t.Error("extendMatch refs misplaced")
	}
}

// FMEDupChunks counts what a lazily hashing FME would save (ROADMAP item
// 3(c)): a first generation has nothing to extend over, a second resolves
// most of its chunks by forward extension without ever looking their own
// digests up.
func TestFMEDupChunksCountsForwardExtension(t *testing.T) {
	base := randBytes(3, 400_000)
	edited := append([]byte(nil), base...)
	copy(edited[150_011:], randBytes(4, 20_000))
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PutFile("gen0", bytes.NewReader(base)); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().FMEDupChunks; got != 0 {
		t.Errorf("first generation: FMEDupChunks = %d, want 0", got)
	}
	if err := d.PutFile("gen1", bytes.NewReader(edited)); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.FMEDupChunks <= 0 || s.FMEDupChunks > s.DupChunks {
		t.Errorf("second generation: FMEDupChunks = %d of %d duplicate chunks, want in (0, DupChunks]", s.FMEDupChunks, s.DupChunks)
	}
	t.Logf("FMEDupChunks %d of ChunksIn %d (DupChunks %d)", s.FMEDupChunks, s.ChunksIn, s.DupChunks)
}
