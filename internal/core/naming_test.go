package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/store"
)

// namingHistory is a chunk-level history, fed as cut and hashed chunks,
// built to meet every case of HHR's deferred naming. SD 4 groups m0/g0's
// chunks a as [a0 | a1 a2 a3] [a4 | a5 a6 a7] …, m1/g0's z likewise, with
// a31 stored again inside m1's second group. m0/g1 then
//   - loads m1's manifest (z0), then m0's (a4), whose backward split,
//     against a new chunk the size of a2, leaves a1 as an unnamed remainder;
//   - reaches a1 from a0 by FME, a compare by bytes against that piece;
//   - meets a1 alone, which must settle before the cache index is asked;
//   - splits [a13 a14 a15] to [a13+a14's head | a14's tail | a15], then,
//     at a14's tail, splits the unnamed first piece again backward, leaving
//     a smaller unnamed piece at the same start;
//   - leaves a31 unnamed in m0's manifest, then makes a31 a one-chunk
//     shared piece of m1's, named at the split: its index entry must come
//     after the unnamed piece's, so a later a31 extends in m1's manifest.
//
// m1/g1 loads both manifests again.
func namingHistory() (names []string, files [][]HashedChunk) {
	rng := rand.New(rand.NewSource(1))
	chunk := func(b []byte) HashedChunk { return HashedChunk{hashutil.SumBytes(b), b} }
	fresh := func(n int) HashedChunk {
		b := make([]byte, n)
		rng.Read(b)
		return chunk(b)
	}
	var a, z []HashedChunk
	for i := range 40 {
		a = append(a, fresh(400+13*i))
	}
	for i := range 16 {
		z = append(z, fresh(950+11*i))
	}
	a14 := a[14].Data
	head, tail := chunk(a14[:len(a14)-300]), chunk(a14[len(a14)-300:])
	g1 := slices.Concat(
		z[0:4], []HashedChunk{fresh(301)},
		[]HashedChunk{fresh(303), fresh(len(a[2].Data)), a[3]}, a[4:9], []HashedChunk{fresh(305)},
		[]HashedChunk{fresh(307), a[0], a[1], fresh(309)},
		[]HashedChunk{fresh(311), a[1], fresh(313)},
		[]HashedChunk{fresh(300), a[15], a[16], fresh(315)},
		[]HashedChunk{fresh(317), head, tail, fresh(319)},
		[]HashedChunk{a[28], a[29], fresh(len(a[30].Data)), z[4], a[31], fresh(321)},
		[]HashedChunk{fresh(323), a[31], fresh(325)},
	)
	return []string{"m0/g0", "m1/g0", "m0/g1", "m1/g1"}, [][]HashedChunk{
		a,
		slices.Concat(z[:5], a[31:32], z[5:]),
		g1,
		slices.Concat(z[8:], a[20:28]),
	}
}

// namingWatch is a chunk source that looks at its file's queue each time
// the ordered stage asks for a chunk (single stream: nothing else touches
// the manifests): it counts the pieces split again before they were named,
// and the chunks whose bytes equal a piece not named yet.
type namingWatch struct {
	chunkSource
	f              *fileState
	resplit        map[name]bool
	equalToPending int
}

func (w *namingWatch) next() (pchunk, error) {
	pc, err := w.chunkSource.next()
	for _, n := range w.f.names {
		if n.m == nil {
			continue
		}
		data := n.m.Unnamed(store.Entry{Start: n.start})
		if int64(len(data)) != n.size {
			w.resplit[name{m: n.m, start: n.start, size: n.size}] = true
		} else if err == nil && bytes.Equal(data, pc.Data) {
			w.equalToPending++
		}
	}
	return pc, err
}

// TestHHRNamingHistoryPinned: naming HHR's pieces at a settle instead of
// at the split changes no decision. namingHistory, at CacheManifests 1
// (every manifest read evicts) and 2 (both manifests stay, so a piece named
// at its split can share bytes with an unnamed one of the other manifest),
// splits pieces again before they are named, meets chunks whose bytes equal
// a piece not yet named (which must settle before the cache index is asked)
// and compares runs against unnamed pieces by their bytes; its store and
// its Report — every field, RAMBytes (the cache index's size at each
// manifest read) included — equal those recorded from the engine that
// named every piece at the split.
func TestHHRNamingHistoryPinned(t *testing.T) {
	names, files := namingHistory()
	for _, tc := range []struct {
		cache  int
		golden string
	}{{1, "c68e1660f70da3aa77f9b037453a65b23754f1a6"}, {2, "b00822d0289688931075d010fca2c3f77f332476"}} {
		t.Run(fmt.Sprintf("cache=%d", tc.cache), func(t *testing.T) {
			cfg := testConfig()
			cfg.CacheManifests = tc.cache
			d, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w := &namingWatch{resplit: map[name]bool{}}
			compares := cHHRByteCompares.Load()
			want := map[string][]byte{}
			for i, file := range names {
				chunks := files[i]
				w.f = &fileState{name: file}
				w.f.src, w.chunkSource = w, &runSource{pull: func() ([]HashedChunk, error) { return pullAll(&chunks) }}
				if err := d.ingest(context.Background(), w.f); err != nil {
					t.Fatal(err)
				}
				for _, c := range files[i] {
					want[file] = append(want[file], c.Data...)
				}
			}
			if err := d.Finish(); err != nil {
				t.Fatal(err)
			}
			rep := d.Report()
			compares = cHHRByteCompares.Load() - compares
			t.Logf("HHR ops %d, manifest loads %d, pieces split again unnamed %d, chunks equal to an unnamed piece %d, byte compares %d",
				rep.HHROps, rep.ManifestLoads, len(w.resplit), w.equalToPending, compares)
			if len(w.resplit) == 0 || w.equalToPending == 0 || compares == 0 || tc.cache == 1 && rep.ManifestLoads < 3 {
				t.Error("the history does not exercise what it pins")
			}
			if got := goldenDigest(rep, diskSnapshot(t, d)); got != tc.golden {
				t.Errorf("digest %s, the engine naming at the split gave %s:\n%#v", got, tc.golden, rep)
			}
			checkRestore(t, d, want)
		})
	}
}

// pullAll hands out what is left of *chunks as one run, then io.EOF.
func pullAll(chunks *[]HashedChunk) ([]HashedChunk, error) {
	if len(*chunks) == 0 {
		return nil, io.EOF
	}
	run := *chunks
	*chunks = nil
	return run, nil
}

// checkNamed reads manifest name back from the disk and checks that every
// entry's hash is the SHA-1 of the bytes it describes.
func checkNamed(t *testing.T, d *Dedup, name hashutil.Sum) {
	t.Helper()
	m, err := d.Store.ReadManifest(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Entries {
		runs, err := d.Store.ReadDiskChunkRange(m.ContainerOf(e), e.Start, e.Size)
		if err != nil {
			t.Fatal(err)
		}
		if hashutil.SumBytes(runs.Bytes()) != e.Hash {
			t.Errorf("entry [%d, +%d) %v stored with hash %v, not its bytes'", e.Start, e.Size, e.Kind, e.Hash.Short())
		}
	}
}

// TestUnnamedPiecesWrittenBackNamed: a manifest written back while it holds
// pieces its stream has not named — evicted by a manifest read, or orphaned
// — is written with every entry's hash the SHA-1 of its bytes; and a piece
// split again before it was named never lends its hash to the smaller
// piece that took its start. The manifest is one merged 4 KiB entry, split
// backward to [remainder 1 KiB | edge | shared 2 KiB in four chunks], whose
// remainder is split again to [256 B | edge | shared 512 B].
func TestUnnamedPiecesWrittenBackNamed(t *testing.T) {
	for _, how := range []string{"evicted", "settled, then evicted", "orphaned"} {
		t.Run(how, func(t *testing.T) {
			cfg := testConfig()
			cfg.CacheManifests = 1
			old := randBytes(930, 4096)
			d, stored := hhrFixture(t, cfg, old)
			m := stored
			if how != "orphaned" {
				if m, _, _ = d.Load(stored.Name); m == nil {
					t.Fatal("load failed")
				}
			}
			f := &fileState{name: "f", chunkName: d.Store.NextName()}
			split := func(pending []pchunk) {
				for i := range pending {
					pending[i].slot = len(f.slots)
					f.slots = append(f.slots, slotState{})
				}
				f.pending = pending
				m.Lock()
				_, err := d.hhrBackward(f, m, 0)
				m.Unlock()
				if err != nil {
					t.Fatal(err)
				}
			}
			split(append(mkPending(randBytes(931, 1024), 1024), mkPending(old[2048:], 512)...))
			split(append(mkPending(randBytes(932, 256), 256), mkPending(old[512:1024], 512)...))
			if len(m.Entries) != 5 || m.Unnamed(m.Entries[0]) == nil || m.Entries[0].Start != 0 || m.Unnamed(m.Entries[4]) == nil {
				t.Fatalf("the splits left %+v", m.Entries)
			}
			switch how {
			case "settled, then evicted":
				d.settle(f)
				fallthrough
			case "evicted":
				other := store.NewManifest(d.Store.NextName(), store.FormatMHD)
				other.Append(store.Entry{Hash: hashutil.SumString("other"), Size: 1, Kind: store.KindHook})
				if err := d.Store.CreateManifest(other); err != nil {
					t.Fatal(err)
				}
				if _, _, err := d.Load(other.Name); err != nil {
					t.Fatal(err)
				}
			case "orphaned":
				if err := d.persistIfOrphaned(m); err != nil {
					t.Fatal(err)
				}
			}
			if m.Dirty() {
				t.Fatal("the manifest was not written back")
			}
			checkNamed(t, d, stored.Name)
			d.settle(f) // what the stream still has queued names nothing wrongly
			m.Lock()
			for _, e := range m.Entries {
				if e.Hash.IsZero() {
					t.Errorf("entry [%d, +%d) still unnamed", e.Start, e.Size)
				}
			}
			m.Unlock()
		})
	}
}

// TestHHRNamingConcurrentStreams: two streams ingest the same generations
// at once at CacheManifests 1, so each creates unnamed pieces in manifests
// the other compares against, splits again and evicts — written back,
// named by Encode — while the owner has not named them (run it with
// -race). Every file restores, verified, and the store checks clean.
func TestHHRNamingConcurrentStreams(t *testing.T) {
	gens := historyGens()
	cfg := testConfig()
	cfg.CacheManifests = 1
	d, err := New(cfg)
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
	compares := cHHRByteCompares.Load()
	if err := d.IngestStreamsContext(context.Background(), 2, streams); err != nil {
		t.Fatal(err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	rep := d.Report()
	t.Logf("HHR ops %d, manifest loads %d, byte compares %d", rep.HHROps, rep.ManifestLoads, cHHRByteCompares.Load()-compares)
	v := store.NewVerifier(d.Store, store.VerifyOpts{})
	for name, want := range files {
		var got bytes.Buffer
		if err := v.RestoreFile(name, &got); err != nil || !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("verified restore of %s: %d bytes of %d, %v", name, got.Len(), len(want), err)
		}
	}
	if rep := store.Check(d.Disk(), store.FormatMHD); !rep.OK() {
		t.Fatalf("store check: %v", rep.Problems)
	}
	checkInvariants(t, d)
}
