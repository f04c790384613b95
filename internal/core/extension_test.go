package core

import (
	"bytes"
	"context"
	"crypto/sha1"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
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
	name := d.Store.NextName()
	if err := d.Store.SealDiskChunk(name, content); err != nil {
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
	if err := d.Store.CreateManifest(m); err != nil {
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
	f := &fileState{name: "f", chunkName: d.Store.NextName(), pending: pending}
	for i := range f.pending {
		f.pending[i].slot = i
		f.slots = append(f.slots, slotState{})
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
	if d.Count.HHROps.Load() != 0 {
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
	if d.Count.HHRDiskAccesses.Load() != 0 {
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
	f := &fileState{name: "f", chunkName: d.Store.NextName(),
		src: newChunkPipeline(&sliceChunker{chunks: chunks}), scanned: true}
	t.Cleanup(f.src.stop)
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
	if d.Count.HHROps.Load() != 0 {
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
	if len(f.replay) != 1 || !bytes.Equal(f.replay[0].Data, foreign) {
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
	pc0 := pchunk{Chunk: chunker.Chunk{Data: content[:1024]}, hash: hashutil.SumBytes(content[:1024]), slot: 0}
	f.slots = append(f.slots, slotState{})
	f.pending = []pchunk{pc0}
	// Hit chunk: entry 1.
	hit := pchunk{Chunk: chunker.Chunk{Data: content[1024:2048]}, hash: hashutil.SumBytes(content[1024:2048]), slot: 1}
	f.slots = append(f.slots, slotState{})

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
// 5(c)): a first generation has nothing to extend over, a second resolves
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

// runName is K for the chunks of cut that tile [start, start+size) of the
// bytes they were cut from: the SHA-1 of their digests, and how many there
// are.
func runName(cut []HashedChunk, start, size int64) (hashutil.Sum, int) {
	h := hashutil.NewHasher()
	var off int64
	n := 0
	for _, c := range cut {
		if off >= start && off < start+size {
			h.Write(c.Hash[:])
			n++
		}
		off += int64(len(c.Data))
	}
	return h.Sum(), n
}

// halveOdd cuts the same bytes otherwise: every chunk at an odd index in
// two. Every cut of the original stays, so each manifest entry is still
// tiled by whole chunks, but almost every run has other digests.
func halveOdd(cut []HashedChunk) []HashedChunk {
	var out []HashedChunk
	for i, c := range cut {
		if i%2 == 0 || len(c.Data) < 2 {
			out = append(out, c)
			continue
		}
		a, b := c.Data[:len(c.Data)/2], c.Data[len(c.Data)/2:]
		out = append(out, HashedChunk{hashutil.SumBytes(a), a}, HashedChunk{hashutil.SumBytes(b), b})
	}
	return out
}

// extendCounters reads match extension's two counters.
func extendCounters() (hits, rehashed int64) {
	return cExtendFactHits.Load(), cExtendRehashedBytes.Load()
}

// TestRunFactOtherCutsMatchByBytes: the same bytes under other legal cuts,
// fed through PutChunksContext, match what the chunker's cuts taught the
// cached manifest by hashing their bytes — no fact names their digests —
// and the manifest then knows the run under the new cuts, so the next
// generation cut that way hashes nothing.
func TestRunFactOtherCutsMatchByBytes(t *testing.T) {
	cfg := testConfig()
	base := randBytes(960, 200_000)
	cut := cutAs(t, cfg, base)
	other := halveOdd(cut)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	put := func(name string, chunks []HashedChunk) (hits, rehashed int64) {
		t.Helper()
		h0, r0 := extendCounters()
		if err := d.PutChunksContext(context.Background(), name, pullRuns(chunks, rand.New(rand.NewSource(1)))); err != nil {
			t.Fatal(err)
		}
		h1, r1 := extendCounters()
		return h1 - h0, r1 - r0
	}
	put("gen0", cut)
	put("gen1", cut) // loads gen0's manifest and learns its runs
	stored := d.Stats().StoredDataBytes
	m, ok := d.Cached(cut[0].Hash)
	if !ok {
		t.Fatal("gen0's manifest is not cached after gen1")
	}
	// learned counts the multi-chunk runs of cut that m knows by a fact.
	learned := func(cut []HashedChunk) (facts, runs int) {
		m.Lock()
		defer m.Unlock()
		for _, e := range m.Entries {
			if k, n := runName(cut, e.Start, e.Size); n > 1 {
				runs++
				if m.Fact(e.Hash) == k {
					facts++
				}
			}
		}
		return facts, runs
	}
	if facts, runs := learned(cut); runs == 0 || facts != runs {
		t.Fatalf("after gen1: %d of %d multi-chunk runs learned", facts, runs)
	}
	hits, rehashed := put("gen2", other)
	if hits != 0 || rehashed == 0 {
		t.Errorf("gen2 under other cuts: %d fact hits, %d bytes rehashed; want 0 hits and the byte path", hits, rehashed)
	}
	if s := d.Stats().StoredDataBytes; s != stored {
		t.Errorf("gen2 stored %d new bytes; the same bytes under other cuts must all match", s-stored)
	}
	if facts, runs := learned(other); runs == 0 || facts != runs {
		t.Errorf("after gen2: %d of %d runs under the other cuts learned", facts, runs)
	}
	hits, rehashed = put("gen3", other)
	if hits == 0 || rehashed != 0 {
		t.Errorf("gen3 under the learned cuts: %d fact hits, %d bytes rehashed; want hits and none", hits, rehashed)
	}
	checkRestore(t, d, map[string][]byte{"gen0": base, "gen1": base, "gen2": base, "gen3": base})
}

// TestRunFactOneByteNeverMatches: a run that differs from a learned run in
// one byte never matches, before or after the fact, under the same cuts or
// as one chunk, and a mismatch teaches nothing.
func TestRunFactOneByteNeverMatches(t *testing.T) {
	content := randBytes(961, 3072)
	d, m := extFixture(t, testConfig(), content, []int64{3072}, []store.EntryKind{store.KindMerged})
	h := m.Entries[0].Hash
	run := mkPending(content, 1024)
	if !d.runMatches(m, run, m.Entries[0]) {
		t.Fatal("the stored run does not match its own entry")
	}
	want := m.Fact(h)
	if want.IsZero() {
		t.Fatal("a matching run taught no fact")
	}
	hits, _ := extendCounters()
	if !d.runMatches(m, run, m.Entries[0]) {
		t.Fatal("the learned run no longer matches")
	}
	if got, _ := extendCounters(); got != hits+1 {
		t.Errorf("the learned run was not decided by its fact (%d hits)", got-hits)
	}
	for _, at := range []int{0, 511, 1023, 1024, 2047, 3071} {
		bad := bytes.Clone(content)
		bad[at] ^= 0x40
		for _, size := range []int{1024, 3072} {
			for try := 0; try < 2; try++ {
				if d.runMatches(m, mkPending(bad, size), m.Entries[0]) {
					t.Fatalf("a run differing at byte %d (%d-byte chunks) matched, try %d", at, size, try)
				}
			}
		}
		if m.Fact(h) != want {
			t.Fatalf("a mismatch at byte %d changed the fact", at)
		}
	}
}

// historyGens is a fixed four-generation history of one 600 KB image:
// each generation overwrites, inserts and deletes a few KB of the last.
func historyGens() [][]byte {
	gens := [][]byte{randBytes(970, 600_000)}
	rng := rand.New(rand.NewSource(971))
	for g := 1; g < 4; g++ {
		next := bytes.Clone(gens[g-1])
		for e := 0; e < 3; e++ {
			at := rng.Intn(len(next) - 10_000)
			copy(next[at:], randBytes(int64(980+10*g+e), 3000))
			at = rng.Intn(len(next))
			next = slices.Insert(next, at, randBytes(int64(990+10*g+e), 777)...)
			at = rng.Intn(len(next) - 2000)
			next = slices.Delete(next, at, at+1500)
		}
		gens = append(gens, next)
	}
	return gens
}

// TestRunFactHistoryPinned: facts change what the CPU hashes, not a single
// decision. On a fixed four-generation history, HashedBytes (the paper's
// re-hash) and every Report field equal the values recorded by the engine
// that re-hashed every run, and the history does exercise the facts.
func TestRunFactHistoryPinned(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	h0, r0 := extendCounters()
	files := map[string][]byte{}
	for g, data := range historyGens() {
		name := fmt.Sprintf("gen%d", g)
		files[name] = data
		if err := d.PutFile(name, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	hits, rehashed := extendCounters()
	rep := d.Report()
	const wantHashed = 4628926                                    // recorded from the re-hashing engine
	const wantReport = "5833c816e6651ccfb824e122d4e0e8ef3c81d1f4" // SHA-1 of its %#v
	if rep.HashedBytes != wantHashed {
		t.Errorf("HashedBytes = %d, the re-hashing engine's was %d", rep.HashedBytes, wantHashed)
	}
	if got := fmt.Sprintf("%x", sha1.Sum([]byte(fmt.Sprintf("%#v", rep)))); got != wantReport {
		t.Errorf("Report digest %s, the re-hashing engine's was %s:\n%#v", got, wantReport, rep)
	}
	if hits == h0 {
		t.Error("the history never decided a run by a fact")
	}
	t.Logf("fact hits %d, rehashed %d of HashedBytes %d", hits-h0, rehashed-r0, rep.HashedBytes)
	checkRestore(t, d, files)
}

// TestRunFactSurvivesSpliceDiesWithEviction: a fact is about SHA-1, so an
// HHR splice of its manifest keeps it; it lives in the cached manifest
// object, so at CacheManifests 1 loading another manifest takes it away.
func TestRunFactSurvivesSpliceDiesWithEviction(t *testing.T) {
	cfg := testConfig()
	cfg.CacheManifests = 1
	content := randBytes(962, 8192)
	d, stored := extFixture(t, cfg, content,
		[]int64{1024, 3072, 1024, 3072},
		[]store.EntryKind{store.KindHook, store.KindMerged, store.KindHook, store.KindMerged})
	m, _, err := d.Load(stored.Name)
	if err != nil {
		t.Fatal(err)
	}
	h := m.Entries[1].Hash
	if !d.runMatches(m, mkPending(content[1024:4096], 1024), m.Entries[1]) || m.Fact(h).IsZero() {
		t.Fatal("the merged run was not learned")
	}
	learned := m.Fact(h)

	// Forward HHR on entry 3: its first 1024 bytes match, the rest not.
	pre := mkPending(append(bytes.Clone(content[5120:6144]), randBytes(963, 2048)...), 1024)
	f := &fileState{name: "f", chunkName: d.Store.NextName()}
	for i := range pre {
		pre[i].slot = i
		f.slots = append(f.slots, slotState{})
	}
	if consumed, err := d.hhrForward(f, m, 3, pre); err != nil || consumed != 1 {
		t.Fatalf("hhrForward consumed %d, err %v; want 1", consumed, err)
	}
	if len(m.Entries) == 4 {
		t.Fatal("entry 3 was not spliced")
	}
	if m.Fact(h) != learned {
		t.Fatal("the splice lost the fact")
	}

	// Loading another manifest evicts m (written back, being dirty); its
	// reload is a new object that knows nothing.
	other := store.NewManifest(d.Store.NextName(), store.FormatMHD)
	other.Append(store.Entry{Hash: hashutil.SumString("other"), Size: 1, Kind: store.KindHook})
	if err := d.Store.CreateManifest(other); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Load(other.Name); err != nil {
		t.Fatal(err)
	}
	again, read, err := d.Load(stored.Name)
	if err != nil || !read {
		t.Fatalf("reload: read=%v err=%v; want a disk read", read, err)
	}
	if !again.Fact(h).IsZero() {
		t.Error("the fact outlived its manifest's eviction")
	}
	_, r0 := extendCounters()
	if !d.runMatches(again, mkPending(content[1024:4096], 1024), again.Entries[1]) {
		t.Fatal("the reloaded manifest's run does not match")
	}
	if _, r1 := extendCounters(); r1-r0 != 3072 {
		t.Errorf("after eviction the run rehashed %d bytes, want 3072", r1-r0)
	}
}

// TestRunFactConcurrentStreams: two streams extending over one cached
// manifest learn and read its facts under the manifest lock (run it with
// -race), and every generation restores.
func TestRunFactConcurrentStreams(t *testing.T) {
	gens := historyGens()
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PutFile("gen0", bytes.NewReader(gens[0])); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{"gen0": gens[0]}
	var streams []Stream
	for s := 0; s < 2; s++ {
		st := Stream{Name: fmt.Sprintf("s%d", s)}
		for g := 1; g < len(gens); g++ {
			name, data := fmt.Sprintf("s%d/gen%d", s, g), gens[g]
			files[name] = data
			st.Items = append(st.Items, Item{Name: name, Open: func() (io.ReadCloser, error) {
				return io.NopCloser(bytes.NewReader(data)), nil
			}})
		}
		streams = append(streams, st)
	}
	h0, _ := extendCounters()
	if err := d.IngestStreamsContext(context.Background(), 2, streams); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if h, _ := extendCounters(); h == h0 {
		t.Error("neither stream decided a run by a fact")
	}
	checkRestore(t, d, files)
	checkInvariants(t, d)
}

// putDelta puts data as name through PutFile and returns what match
// extension's counters and the stored bytes gained.
func putDelta(t *testing.T, d *Dedup, name string, data []byte) (hits, rehashed, stored int64) {
	t.Helper()
	h0, r0 := extendCounters()
	s0 := d.Stats().StoredDataBytes
	if err := d.PutFile(name, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	h1, r1 := extendCounters()
	return h1 - h0, r1 - r0, d.Stats().StoredDataBytes - s0
}

// TestRunFactBornWithManifest: a manifest is born knowing the facts of its
// merged runs, so an exact duplicate of a just-written file of many SHM
// groups is confirmed without re-hashing one merged byte, and stores none.
func TestRunFactBornWithManifest(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(964, 200_000)
	putDelta(t, d, "gen0", data)
	hits, rehashed, stored := putDelta(t, d, "gen1", data)
	if hits == 0 || rehashed != 0 || stored != 0 {
		t.Errorf("duplicate of a new file: %d fact hits, %d bytes rehashed, %d stored; want hits, 0 and 0", hits, rehashed, stored)
	}
	checkRestore(t, d, map[string][]byte{"gen0": data, "gen1": data})
}

// TestRunFactBornFactsBoundedByCache: the born facts of only the newest
// CacheManifests manifests are kept. A duplicate of a file followed by
// CacheManifests−1 newer ones is confirmed by its manifest's born facts;
// one more newer file and the same duplicate's first compares re-hash.
func TestRunFactBornFactsBoundedByCache(t *testing.T) {
	cfg := testConfig()
	cfg.CacheManifests = 3
	old := randBytes(965, 100_000)
	for _, newer := range []int{cfg.CacheManifests - 1, cfg.CacheManifests} {
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		putDelta(t, d, "old", old)
		for i := range newer {
			putDelta(t, d, fmt.Sprintf("new%d", i), randBytes(int64(966+i), 50_000))
		}
		hits, rehashed, stored := putDelta(t, d, "again", old)
		if stored != 0 {
			t.Errorf("%d newer: the duplicate stored %d bytes", newer, stored)
		}
		want, ok := "fact hits and no re-hash", hits > 0 && rehashed == 0
		if newer == cfg.CacheManifests {
			want, ok = "no fact hit and a re-hash", hits == 0 && rehashed > 0
		}
		if !ok {
			t.Errorf("%d newer manifests at cache %d: %d fact hits, %d bytes rehashed; want %s",
				newer, cfg.CacheManifests, hits, rehashed, want)
		}
	}
}

// TestRunFactBornRacingLoad: two streams start a duplicate of the same new
// file at once, so both may read its manifest and be taught its born facts
// at the same time (run it with -race). Each read object learns them while
// still private; every file restores, verified, and nothing is stored twice.
func TestRunFactBornRacingLoad(t *testing.T) {
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(967, 300_000)
	putDelta(t, d, "gen0", data)
	stored := d.Stats().StoredDataBytes
	files := map[string][]byte{"gen0": data}
	var ready sync.WaitGroup
	ready.Add(2)
	var streams []Stream
	for s := range 2 {
		name := fmt.Sprintf("s%d/copy", s)
		files[name] = data
		streams = append(streams, Stream{Name: name, Items: []Item{{Name: name, Open: func() (io.ReadCloser, error) {
			ready.Done()
			ready.Wait() // both streams open before either reads
			return io.NopCloser(bytes.NewReader(data)), nil
		}}}})
	}
	h0, _ := extendCounters()
	if err := d.IngestStreamsContext(context.Background(), 2, streams); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if h, _ := extendCounters(); h == h0 {
		t.Error("neither stream decided a run by a born fact")
	}
	t.Logf("manifest loads %d", d.Stats().ManifestLoads)
	if s := d.Stats().StoredDataBytes; s != stored {
		t.Errorf("two duplicates stored %d bytes", s-stored)
	}
	v := store.NewVerifier(d.Store, store.VerifyOpts{})
	for name, want := range files {
		var got bytes.Buffer
		if err := v.RestoreFile(name, &got); err != nil || !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("verified restore of %s: %d bytes of %d, %v", name, got.Len(), len(want), err)
		}
	}
	checkInvariants(t, d)
}

// TestRunFactBornOtherCuts: born facts name the runs by the cuts the
// manifest was written with. The same bytes under other cuts, fed through
// PutChunksContext, match no born fact, fall back to hashing their bytes
// and still match everything.
func TestRunFactBornOtherCuts(t *testing.T) {
	cfg := testConfig()
	base := randBytes(968, 200_000)
	other := halveOdd(cutAs(t, cfg, base))
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	putDelta(t, d, "gen0", base)
	h0, r0 := extendCounters()
	stored := d.Stats().StoredDataBytes
	if err := d.PutChunksContext(context.Background(), "gen1", pullRuns(other, rand.New(rand.NewSource(2)))); err != nil {
		t.Fatal(err)
	}
	if h, r := extendCounters(); h != h0 || r == r0 {
		t.Errorf("other cuts: %d fact hits, %d bytes rehashed; want 0 hits and the byte path", h-h0, r-r0)
	}
	if s := d.Stats().StoredDataBytes; s != stored {
		t.Errorf("the same bytes under other cuts stored %d new bytes", s-stored)
	}
	checkRestore(t, d, map[string][]byte{"gen0": base, "gen1": base})
}
