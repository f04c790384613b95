package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
)

// treeStore returns a Store configured to write recipe trees with small
// chunk targets, so even modest manifests produce multi-leaf, multi-level
// trees worth testing.
func treeStore() *Store {
	s := New(simdisk.New(), FormatMHD)
	s.SetRecipeConfig(RecipeConfig{Trees: true, LeafChunkBytes: 512, NodeChunkBytes: 512})
	return s
}

// synthRefs builds n non-coalescible refs over nc container names with
// seeded pseudo-random starts and sizes.
func synthRefs(seed int64, n, nc int) []FileRef {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]FileRef, n)
	for i := range refs {
		var c hashutil.Sum
		binary.BigEndian.PutUint64(c[:8], uint64(i%nc))
		refs[i] = FileRef{
			Container: c,
			Start:     int64(i%7)*100_000 + int64(rng.Intn(4096)) + 1,
			Size:      int64(100 + rng.Intn(9000)),
		}
	}
	return refs
}

func TestRecipeTreeRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 37, 1000, 5000} {
		t.Run(fmt.Sprintf("refs=%d", n), func(t *testing.T) {
			s := treeStore()
			fm := &FileManifest{File: "f", Refs: synthRefs(int64(n)+1, n, 16)}
			st, err := s.WriteFileManifestTree(fm)
			if err != nil {
				t.Fatal(err)
			}
			back, err := s.ReadFileManifest("f")
			if err != nil {
				t.Fatal(err)
			}
			if len(fm.Refs) == 0 {
				if len(back.Refs) != 0 {
					t.Fatalf("empty manifest came back with %d refs", len(back.Refs))
				}
				return
			}
			if !reflect.DeepEqual(fm.Refs, back.Refs) {
				t.Fatalf("refs do not round-trip (%d in, %d out)", len(fm.Refs), len(back.Refs))
			}
			if st.Depth < 1 || st.Leaves < 1 {
				t.Fatalf("stats claim no tree: %+v", st)
			}
			raw, err := s.Disk().Read(simdisk.FileManifest, "f")
			if err != nil {
				t.Fatal(err)
			}
			if !IsRecipeTreeRoot(raw) {
				t.Fatal("stored FileManifest object is not a tree root")
			}
			if n >= 1000 && st.Depth < 2 {
				t.Fatalf("%d refs with 512-byte leaves should need interior nodes, depth = %d", n, st.Depth)
			}
		})
	}
}

func TestRecipeTreeWriteFileManifestRouting(t *testing.T) {
	// With Trees on, the ordinary WriteFileManifest entry point must write
	// a tree; with Trees off, a flat manifest. Both must read back equal.
	for _, trees := range []bool{false, true} {
		s := New(simdisk.New(), FormatMHD)
		s.SetRecipeConfig(RecipeConfig{Trees: trees})
		fm := &FileManifest{File: "f", Refs: synthRefs(3, 200, 8)}
		if err := s.WriteFileManifest(fm); err != nil {
			t.Fatal(err)
		}
		raw, err := s.Disk().Read(simdisk.FileManifest, "f")
		if err != nil {
			t.Fatal(err)
		}
		if IsRecipeTreeRoot(raw) != trees {
			t.Fatalf("Trees=%v but IsRecipeTreeRoot=%v", trees, !trees)
		}
		back, err := s.ReadFileManifest("f")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fm.Refs, back.Refs) {
			t.Fatalf("Trees=%v: refs do not round-trip", trees)
		}
	}
}

func TestWriteFileManifestTreeRejectsDegenerateRefs(t *testing.T) {
	s := treeStore()
	for _, bad := range []FileRef{
		{Container: sumOf("c"), Start: 0, Size: 0},
		{Container: sumOf("c"), Start: 0, Size: -5},
		{Container: sumOf("c"), Start: -1, Size: 10},
	} {
		fm := &FileManifest{File: "f", Refs: []FileRef{bad}}
		if _, err := s.WriteFileManifestTree(fm); err == nil {
			t.Errorf("degenerate ref %+v accepted", bad)
		}
	}
}

func TestFileManifestAppendRejectsDegenerateRefs(t *testing.T) {
	fm := &FileManifest{File: "f"}
	if err := fm.Append(FileRef{Container: sumOf("c"), Start: 0, Size: 0}); err == nil {
		t.Error("zero-size ref accepted")
	}
	if err := fm.Append(FileRef{Container: sumOf("c"), Start: 5, Size: -1}); err == nil {
		t.Error("negative-size ref accepted")
	}
	if err := fm.Append(FileRef{Container: sumOf("c"), Start: -2, Size: 10}); err == nil {
		t.Error("negative-start ref accepted")
	}
	if len(fm.Refs) != 0 {
		t.Fatalf("rejected refs were appended anyway: %+v", fm.Refs)
	}
	if err := fm.Append(FileRef{Container: sumOf("c"), Start: 0, Size: 10}); err != nil {
		t.Fatalf("valid ref rejected: %v", err)
	}
}

// TestRecipeTree64BitOffsets is the truncation-bug regression: refs whose
// Start or Size exceed 32 bits round-trip exactly through a recipe tree,
// while the legacy flat encoder refuses them outright (it used to truncate
// silently).
func TestRecipeTree64BitOffsets(t *testing.T) {
	huge := []FileRef{
		{Container: sumOf("a"), Start: 5 << 30, Size: 4096},          // start past 4 GiB
		{Container: sumOf("b"), Start: 1, Size: (1 << 32) + 12345},   // size past 4 GiB
		{Container: sumOf("c"), Start: 1<<40 + 7, Size: 1<<33 + 999}, // both
	}
	s := treeStore()
	fm := &FileManifest{File: "huge", Refs: huge}
	if _, err := s.WriteFileManifestTree(fm); err != nil {
		t.Fatal(err)
	}
	back, err := s.ReadFileManifest("huge")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(huge, back.Refs) {
		t.Fatalf("64-bit refs do not round-trip: %+v", back.Refs)
	}

	for _, r := range huge {
		flat := &FileManifest{File: "huge", Refs: []FileRef{r}}
		if _, err := flat.Encode(); err == nil {
			t.Errorf("flat encoder accepted >32-bit ref %+v (would truncate)", r)
		}
	}
}

// rangedFixture stores real container bytes behind a recipe tree and
// returns the store, the file's full contents, and its ref boundaries
// (every leaf boundary is a ref boundary, so probing all ref edges covers
// all leaf edges).
func rangedFixture(t *testing.T, nref int) (*Store, []byte, []int64) {
	t.Helper()
	s := treeStore()
	rng := rand.New(rand.NewSource(42))
	container := s.NextName()
	cdata := make([]byte, 1<<16)
	rng.Read(cdata)
	if err := s.SealDiskChunk(container, cdata); err != nil {
		t.Fatal(err)
	}
	// One manifest entry vouching for the whole container, so the Verifier
	// can serve any sub-range of it.
	m := NewManifest(container, FormatMHD)
	m.Append(Entry{Hash: hashutil.SumBytes(cdata), Start: 0, Size: int64(len(cdata))})
	if err := s.CreateManifest(m); err != nil {
		t.Fatal(err)
	}
	fm := &FileManifest{File: "img"}
	var want []byte
	var bounds []int64
	for i := 0; i < nref; i++ {
		start := int64(rng.Intn(len(cdata) - 10_000))
		size := int64(50 + rng.Intn(9000))
		if err := fm.Append(FileRef{Container: container, Start: start, Size: size}); err != nil {
			t.Fatal(err)
		}
		want = append(want, cdata[start:start+size]...)
		bounds = append(bounds, int64(len(want)))
	}
	if _, err := s.WriteFileManifestTree(fm); err != nil {
		t.Fatal(err)
	}
	return s, want, bounds
}

func TestRestoreRangeEdges(t *testing.T) {
	s, want, bounds := rangedFixture(t, 300)
	total := int64(len(want))

	check := func(off, length int64) {
		t.Helper()
		var buf bytes.Buffer
		st, err := s.RestoreRange("img", off, length, &buf, RestoreOptions{})
		if err != nil {
			t.Fatalf("RestoreRange(%d, %d): %v", off, length, err)
		}
		lo := off
		if lo > total {
			lo = total
		}
		hi := total
		if length >= 0 && off+length < total {
			hi = off + length
		}
		if lo > hi {
			lo = hi
		}
		if !bytes.Equal(buf.Bytes(), want[lo:hi]) {
			t.Fatalf("RestoreRange(%d, %d) = %d bytes, want [%d:%d)", off, length, buf.Len(), lo, hi)
		}
		if st.FileBytes != total {
			t.Fatalf("FileBytes = %d, want %d", st.FileBytes, total)
		}
		if st.Length != hi-lo {
			t.Fatalf("Length = %d, want %d", st.Length, hi-lo)
		}
	}

	// Offset 0, whole file.
	check(0, -1)
	check(0, total)
	// Every ref (and therefore leaf) boundary straddled, plus the exact
	// boundary on each side.
	for _, b := range bounds {
		if b > 0 {
			check(b-1, 2)
			check(b-1, 1)
		}
		if b < total {
			check(b, 1)
		}
	}
	// Interior range with length overshooting EOF: clamped, not an error.
	check(total-100, 5000)
	// Offset exactly at EOF and past it: zero bytes, success.
	check(total, 10)
	check(total+12345, 10)
	check(total+12345, -1)
	// Negative offset is an error.
	if _, err := s.RestoreRange("img", -1, 10, io.Discard, RestoreOptions{}); err == nil {
		t.Fatal("negative offset accepted")
	}
	// Unknown file is an error.
	if _, err := s.RestoreRange("absent", 0, 10, io.Discard, RestoreOptions{}); err == nil {
		t.Fatal("ranged restore of unknown file succeeded")
	}
}

func TestRestoreRangeEmptyFile(t *testing.T) {
	s := treeStore()
	if _, err := s.WriteFileManifestTree(&FileManifest{File: "empty"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	st, err := s.RestoreRange("empty", 0, 100, &buf, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 || st.Length != 0 || st.FileBytes != 0 {
		t.Fatalf("empty file range: %d bytes, stats %+v", buf.Len(), st)
	}
}

func TestRestoreRangeFlatManifest(t *testing.T) {
	// The ranged path must serve flat recipes too (format detection), with
	// identical clamp semantics and zero recipe reads.
	s := New(simdisk.New(), FormatBasic)
	c := s.NextName()
	data := []byte("abcdefghijklmnopqrstuvwxyz")
	if err := s.SealDiskChunk(c, data); err != nil {
		t.Fatal(err)
	}
	fm := &FileManifest{File: "f"}
	fm.Append(FileRef{Container: c, Start: 0, Size: 10})
	fm.Append(FileRef{Container: c, Start: 20, Size: 6})
	if err := s.WriteFileManifest(fm); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	st, err := s.RestoreRange("f", 8, 4, &buf, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != "ijuv" {
		t.Fatalf("flat ranged restore = %q, want %q", buf.String(), "ijuv")
	}
	if st.RecipeReads != 0 {
		t.Fatalf("flat recipe claims %d recipe reads", st.RecipeReads)
	}
	// Past-EOF clamp parity with the tree path.
	buf.Reset()
	if _, err := s.RestoreRange("f", 100, 10, &buf, RestoreOptions{}); err != nil || buf.Len() != 0 {
		t.Fatalf("flat past-EOF range: %d bytes, err %v", buf.Len(), err)
	}
}

// TestRestoreRangeLogarithmicReads is the acceptance counter test: on a
// multi-GB synthetic image whose tree holds thousands of recipe chunks, a
// small ranged restore may read only O(log n) of them — pinned against the
// simdisk per-category read counter, not just the returned stats.
func TestRestoreRangeLogarithmicReads(t *testing.T) {
	s := New(simdisk.New(), FormatMHD)
	s.SetRecipeConfig(RecipeConfig{Trees: true}) // default 4 KiB recipe chunks
	container := s.NextName()
	cdata := make([]byte, 1<<16)
	rand.New(rand.NewSource(7)).Read(cdata)
	if err := s.SealDiskChunk(container, cdata); err != nil {
		t.Fatal(err)
	}
	// 200k refs of 16 KiB each: a ~3.2 GB image, all ranges inside one
	// small container. Random starts keep the ref records distinct so the
	// leaf chunks cannot dedup against each other — the tree really holds
	// thousands of chunks.
	fm := &FileManifest{File: "big"}
	rng := rand.New(rand.NewSource(8))
	const nref = 200_000
	for i := 0; i < nref; i++ {
		start := int64(rng.Intn(len(cdata) - 16384))
		if err := fm.Append(FileRef{Container: container, Start: start, Size: 16384}); err != nil {
			t.Fatal(err)
		}
	}
	if fm.TotalBytes() < 3<<30 {
		t.Fatalf("fixture is not multi-GB: %d bytes", fm.TotalBytes())
	}
	st, err := s.WriteFileManifestTree(fm)
	if err != nil {
		t.Fatal(err)
	}
	chunks := st.Leaves + st.Nodes
	if chunks < 1000 || st.Depth < 2 {
		t.Fatalf("fixture tree too small to prove anything: %+v", st)
	}

	before := s.Disk().Counters().Reads.Get(simdisk.Recipe)
	var buf bytes.Buffer
	rs, err := s.RestoreRange("big", 1<<30, 64<<10, &buf, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reads := s.Disk().Counters().Reads.Get(simdisk.Recipe) - before
	if buf.Len() != 64<<10 {
		t.Fatalf("restored %d bytes, want 64 KiB", buf.Len())
	}
	// Depth levels plus a few boundary-straddling siblings — nothing close
	// to the thousands of chunks in the tree.
	limit := int64(4*st.Depth + 8)
	if reads > limit {
		t.Fatalf("ranged restore read %d recipe chunks of %d (depth %d); want <= %d",
			reads, chunks, st.Depth, limit)
	}
	if int64(rs.RecipeReads) != reads {
		t.Fatalf("RangeStats.RecipeReads = %d, disk counter says %d", rs.RecipeReads, reads)
	}
}

// TestRecipeTreeSiblingSharing pins the dedup win the tree exists for: a
// second near-identical snapshot (a few dispersed edits in a long ref
// stream) stores well under 20% of its serialized leaf bytes as new
// chunks.
func TestRecipeTreeSiblingSharing(t *testing.T) {
	s := New(simdisk.New(), FormatMHD)
	s.SetRecipeConfig(RecipeConfig{Trees: true})
	refs := synthRefs(11, 20_000, 64)
	if _, err := s.WriteFileManifestTree(&FileManifest{File: "snap1", Refs: refs}); err != nil {
		t.Fatal(err)
	}
	second := make([]FileRef, len(refs))
	copy(second, refs)
	for k := 0; k < 20; k++ {
		i := (k*977 + 13) % len(second)
		second[i] = FileRef{Container: sumOf(fmt.Sprintf("edit%d", k)), Start: int64(k) + 1, Size: 4096}
	}
	st, err := s.WriteFileManifestTree(&FileManifest{File: "snap2", Refs: second})
	if err != nil {
		t.Fatal(err)
	}
	if st.LeafBytes == 0 {
		t.Fatal("no leaf bytes recorded")
	}
	frac := float64(st.NewLeafBytes) / float64(st.LeafBytes)
	if frac >= 0.20 {
		t.Fatalf("second snapshot stored %.0f%% of its leaf bytes as new chunks (want <20%%): %+v",
			frac*100, st)
	}
	// Both snapshots must still materialize exactly.
	back, err := s.ReadFileManifest("snap2")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, back.Refs) {
		t.Fatal("shared-subtree snapshot does not round-trip")
	}
}

func TestVerifierRestoreRange(t *testing.T) {
	s, want, _ := rangedFixture(t, 120)
	v := NewVerifier(s, VerifyOpts{})
	var buf bytes.Buffer
	st, err := v.RestoreRange("img", 1000, 5000, &buf, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want[1000:6000]) {
		t.Fatalf("verified ranged restore diverges (%d bytes)", buf.Len())
	}
	if st.Length != 5000 {
		t.Fatalf("Length = %d", st.Length)
	}
	// Past-EOF clamp through the verifier too.
	buf.Reset()
	if _, err := v.RestoreRange("img", int64(len(want))+5, 10, &buf, RestoreOptions{}); err != nil || buf.Len() != 0 {
		t.Fatalf("verifier past-EOF range: %d bytes, err %v", buf.Len(), err)
	}
}

func TestRecipeTreeHostileInputs(t *testing.T) {
	s, _, _ := rangedFixture(t, 50)
	disk := s.Disk()
	raw, err := disk.Read(simdisk.FileManifest, "img")
	if err != nil {
		t.Fatal(err)
	}

	// Root with an absurd level must be rejected before any recursion.
	bad := append([]byte(nil), raw...)
	bad[8] = maxRecipeLevel + 1
	if _, err := MaterializeFileManifest(disk, "img", bad); err == nil {
		t.Error("root with level 33 accepted")
	}

	// Root pointing at a missing chunk fails loudly.
	bad = append([]byte(nil), raw...)
	for i := 9; i < 9+hashutil.Size; i++ {
		bad[i] ^= 0xFF
	}
	if _, err := MaterializeFileManifest(disk, "img", bad); err == nil {
		t.Error("root with dangling chunk pointer accepted")
	}

	// Root whose declared totals disagree with the tree is corruption,
	// not silent truncation.
	bad = append([]byte(nil), raw...)
	binary.BigEndian.PutUint64(bad[9+hashutil.Size:], binary.BigEndian.Uint64(bad[9+hashutil.Size:])+1)
	if _, err := MaterializeFileManifest(disk, "img", bad); err == nil {
		t.Error("root with wrong byte total accepted")
	}

	// A tampered recipe chunk fails its content address.
	fm, chunks, _, err := materializeManifest(disk, "img", raw, 0)
	if err != nil || fm == nil || len(chunks) == 0 {
		t.Fatalf("materialize: %v (%d chunks)", err, len(chunks))
	}
	victim := chunks[len(chunks)-1]
	payload, err := disk.Read(simdisk.Recipe, victim)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), payload...)
	flipped[len(flipped)-1] ^= 1
	if err := disk.Write(simdisk.Recipe, victim, flipped); err != nil {
		t.Fatal(err)
	}
	if _, err := MaterializeFileManifest(disk, "img", raw); err == nil {
		t.Error("tampered recipe chunk accepted")
	}
}

func TestRecipeTreeGCSweep(t *testing.T) {
	s, want, _ := rangedFixture(t, 200)
	// A second file sharing the same tree-backed store.
	fm2 := &FileManifest{File: "other", Refs: synthRefs(5, 0, 1)}
	if _, err := s.WriteFileManifestTree(fm2); err != nil {
		t.Fatal(err)
	}
	liveChunks := len(s.Disk().Names(simdisk.Recipe))
	if liveChunks == 0 {
		t.Fatal("fixture stored no recipe chunks")
	}

	// Sweep with everything live reclaims nothing.
	st, err := s.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if st.RecipeChunksDeleted != 0 {
		t.Fatalf("sweep deleted %d live recipe chunks", st.RecipeChunksDeleted)
	}
	var buf bytes.Buffer
	if err := s.RestoreFile("img", &buf); err != nil || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("restore after no-op sweep: err %v, %d bytes", err, buf.Len())
	}

	// Deleting the file orphans its whole tree; Sweep reclaims it.
	if err := s.DeleteFile("img"); err != nil {
		t.Fatal(err)
	}
	st, err = s.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if st.RecipeChunksDeleted != liveChunks {
		t.Fatalf("sweep deleted %d recipe chunks, want %d", st.RecipeChunksDeleted, liveChunks)
	}
	if st.RecipeBytesFreed <= 0 {
		t.Fatalf("RecipeBytesFreed = %d", st.RecipeBytesFreed)
	}
	if n := len(s.Disk().Names(simdisk.Recipe)); n != 0 {
		t.Fatalf("%d orphaned recipe chunks survived the sweep", n)
	}
}

func TestCheckCoversRecipeTrees(t *testing.T) {
	s, _, _ := rangedFixture(t, 100)
	rep := Check(s.Disk(), FormatMHD)
	if len(rep.Problems) != 0 {
		t.Fatalf("clean tree store reported problems: %v", rep.Problems)
	}
	// Removing one recipe chunk must surface as a problem.
	names := s.Disk().Names(simdisk.Recipe)
	if err := s.Disk().Delete(simdisk.Recipe, names[0]); err != nil {
		t.Fatal(err)
	}
	rep = Check(s.Disk(), FormatMHD)
	if len(rep.Problems) == 0 {
		t.Fatal("missing recipe chunk went unreported")
	}
}

func TestRecipeTreeRangedEqualsFlatSlice(t *testing.T) {
	// Differential: the same manifest stored flat and as a tree must serve
	// identical bytes for identical ranges, across worker counts.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3; trial++ {
		flat := New(simdisk.New(), FormatBasic)
		tree := treeStore()
		cdata := make([]byte, 1<<15)
		rng.Read(cdata)
		cf, ct := flat.NextName(), tree.NextName()
		if err := flat.SealDiskChunk(cf, cdata); err != nil {
			t.Fatal(err)
		}
		if err := tree.SealDiskChunk(ct, cdata); err != nil {
			t.Fatal(err)
		}
		fmFlat := &FileManifest{File: "f"}
		fmTree := &FileManifest{File: "f"}
		var total int64
		for i := 0; i < 150; i++ {
			start := int64(rng.Intn(len(cdata) - 5000))
			size := int64(20 + rng.Intn(4000))
			if err := fmFlat.Append(FileRef{Container: cf, Start: start, Size: size}); err != nil {
				t.Fatal(err)
			}
			if err := fmTree.Append(FileRef{Container: ct, Start: start, Size: size}); err != nil {
				t.Fatal(err)
			}
			total += size
		}
		if err := flat.WriteFileManifest(fmFlat); err != nil {
			t.Fatal(err)
		}
		if _, err := tree.WriteFileManifestTree(fmTree); err != nil {
			t.Fatal(err)
		}
		// Fixed shapes first — the head, an unaligned interior slice, an
		// open-ended tail (length < 0) and an offset past EOF (zero bytes,
		// no error) — then random ranges.
		probes := [][2]int64{{0, 64 << 10}, {total/2 + 17, 128 << 10}, {total - total/8, -1}, {total + 4096, 64}}
		for len(probes) < 24 {
			probes = append(probes, [2]int64{int64(rng.Intn(int(total))), int64(rng.Intn(int(total)))})
		}
		for _, p := range probes {
			off, length := p[0], p[1]
			for _, workers := range []int{0, 4, 8} {
				opts := RestoreOptions{Workers: workers}
				var a, b bytes.Buffer
				if _, err := flat.RestoreRange("f", off, length, &a, opts); err != nil {
					t.Fatal(err)
				}
				if _, err := tree.RestoreRange("f", off, length, &b, opts); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Fatalf("trial %d: flat and tree diverge for range [%d,+%d) workers=%d",
						trial, off, length, workers)
				}
			}
		}
	}
}
