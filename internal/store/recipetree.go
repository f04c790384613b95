package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"mhdedup/internal/chunker"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
)

// Recipe trees: the FileManifest recipe, deduplicated against itself.
//
// A flat recipe is a single FileManifest object holding every ref. That is
// fine for small files and fatal for huge disk images: restoring byte range
// [X,Y) walks the entire manifest, and the recipe of a near-identical
// snapshot — almost all of which repeats yesterday's — is stored again in
// full. A recipe tree fixes both by treating the recipe itself as data to
// deduplicate: the ref stream is serialized as fixed-width records,
// content-defined into chunks with the same CDC machinery that chunks file
// data, and each chunk is stored as a content-addressed object in the
// Recipe category (name = SHA-1 of payload), so identical recipe pieces
// across snapshots are stored once. The chunk keys are then themselves
// serialized, content-defined and stored, recursively, until a single
// chunk remains; the FileManifest object shrinks to a fixed-size root
// pointer. Interior nodes carry the cumulative file bytes under each
// child, so descending to the chunks covering an offset is O(log n) recipe
// reads instead of an O(n) manifest walk.
//
// On-disk format (all integers big-endian unless varint):
//
//	recipe chunk:  'R' | version(1) | level | body
//	  level 0 body: the CompressRecipe encoding of this leaf's refs —
//	    self-contained (own container table), varint offsets/sizes, so
//	    64-bit starts and sizes round-trip exactly (the legacy flat
//	    format refuses them).
//	  level L>0 body: fixed 32-byte records, one per child chunk at
//	    level L-1: child sum (20) | span bytes (8) | ref count (4).
//	root object (stored under the file's name in the FileManifest
//	category): "MHDRCP01" | root level(1) | root sum (20) |
//	  total bytes (8) | total refs (8) — 45 bytes, never a multiple of
//	  the 28-byte flat record, so format detection is unambiguous.
//
// Cut points are found over the *fixed-width* record stream and snapped
// down to record boundaries: fixed records give the rolling hash the same
// bytes for the same refs no matter what precedes them, so an insertion
// early in a snapshot's recipe resynchronizes within a few chunks and the
// rest of the tree is shared with its sibling — the whole point.
//
// Chunks are content-addressed and written create-if-absent, so a crash
// mid-write leaves only unreferenced Recipe objects (reclaimed by Sweep);
// the root object is the commit point, exactly like the flat manifest it
// replaces. Under a durable store every Recipe create is a WAL record like
// any other object mutation, and replaying a prefix is harmless: a recipe
// chunk without a root referencing it is garbage, never corruption.

const (
	// recipeChunkVersion versions the recipe-chunk header.
	recipeChunkVersion = 1
	// recipeHeaderBytes is the chunk header: magic 'R', version, level.
	recipeHeaderBytes = 3
	// refRecordBytes is the fixed serialization of one ref in the stream
	// the leaf chunker cuts: container (20) | start (8) | size (8).
	refRecordBytes = hashutil.Size + 16
	// nodeEntryBytes is one interior-node record: child sum (20) |
	// span bytes (8) | ref count (4).
	nodeEntryBytes = hashutil.Size + 12
	// maxRecipeLevel bounds tree depth; with fanout ≥ 2 per level, 32
	// levels cover any manifest that fits in memory. The bound is what
	// keeps hostile roots from driving unbounded recursion.
	maxRecipeLevel = 32
	// recipeRootBytes is the fixed size of a tree root object.
	recipeRootBytes = 8 + 1 + hashutil.Size + 16
)

// recipeRootMagic prefixes a FileManifest object that is a tree root.
var recipeRootMagic = []byte("MHDRCP01")

// RecipeConfig selects how a Store writes file recipes.
type RecipeConfig struct {
	// Trees makes WriteFileManifest store recipes as recipe trees instead
	// of flat manifests. Reading is always format-blind (the root magic
	// decides), so flat and tree recipes coexist in one store.
	Trees bool
	// LeafChunkBytes and NodeChunkBytes are the target content-defined
	// chunk sizes for the serialized ref stream and the interior node
	// records. Values below 512 (including zero) take the default 4096.
	LeafChunkBytes int
	NodeChunkBytes int
}

func recipeECS(v int) int {
	if v < 512 {
		return 4096
	}
	return v
}

// SetRecipeConfig selects the recipe write format. Call it before ingest
// begins — it is not synchronized against in-flight writes.
func (s *Store) SetRecipeConfig(rc RecipeConfig) { s.rcfg = rc }

// RecipeTreeStats describes one recipe-tree write: the shape of the tree
// and how much of it deduplicated against recipe chunks already stored.
type RecipeTreeStats struct {
	// Depth is the number of chunk levels (1 = the root is a single leaf).
	Depth int
	// Leaves and Nodes count the tree's chunks per kind.
	Leaves, Nodes int
	// LeafBytes and NodeBytes are the serialized sizes of all leaf and
	// node chunks (whether or not they were newly stored).
	LeafBytes, NodeBytes int64
	// NewChunks counts the chunks actually created; NewLeafBytes and
	// NewNodeBytes their sizes. LeafBytes-NewLeafBytes is the recipe
	// dedup win against sibling snapshots.
	NewChunks                  int
	NewLeafBytes, NewNodeBytes int64
}

// nodeEntry is one decoded interior-node record.
type nodeEntry struct {
	sum  hashutil.Sum
	span int64 // file bytes under this child
	refs int64 // recipe refs under this child
}

// chunkRecords content-defines a stream of fixed recSize-byte records and
// returns the cut points as record counts (strictly increasing, ending at
// the record total). Raw CDC cuts are snapped down to record boundaries so
// every chunk is a whole number of records; identical record runs produce
// identical chunks regardless of what precedes them (modulo one window of
// resynchronization), which is what lets sibling snapshots share subtrees.
func chunkRecords(stream []byte, recSize, ecs int) ([]int, error) {
	nrec := len(stream) / recSize
	if nrec == 0 {
		return nil, nil
	}
	ch, err := chunker.NewGear(bytes.NewReader(stream), chunker.Params{ECS: ecs})
	if err != nil {
		return nil, fmt.Errorf("store: recipe chunker: %w", err)
	}
	var cuts []int
	prev, rawOff := 0, 0
	for {
		c, err := ch.Next()
		if err != nil {
			break // io.EOF: stream exhausted
		}
		rawOff += len(c.Data)
		cut := rawOff / recSize
		if cut > prev && cut < nrec {
			cuts = append(cuts, cut)
			prev = cut
		}
	}
	return append(cuts, nrec), nil
}

// storeRecipeChunk writes one content-addressed recipe chunk,
// deduplicating against chunks already stored. The existence probe is
// uncharged (Size models knowledge a writer keeps in RAM, as HookKnown
// does); only an actual create costs a disk access. A concurrent create of
// the same chunk is a dedup hit, not an error — both writers wanted the
// same bytes under the same name.
func (s *Store) storeRecipeChunk(payload []byte) (hashutil.Sum, bool, error) {
	sum := hashutil.SumBytes(payload)
	name := sum.Hex()
	if _, ok := s.disk.Size(simdisk.Recipe, name); ok {
		return sum, false, nil
	}
	if err := s.disk.Create(simdisk.Recipe, name, payload); err != nil {
		if _, ok := s.disk.Size(simdisk.Recipe, name); ok {
			return sum, false, nil
		}
		return sum, false, err
	}
	return sum, true, nil
}

// WriteFileManifestTree stores fm as a recipe tree: leaves carry the refs
// in the CompressRecipe encoding (full 64-bit offsets), interior nodes
// carry child keys with cumulative spans, and the FileManifest object
// becomes a fixed-size root pointer. An empty manifest stays flat (an
// empty payload). Refs are validated as Append does — a degenerate ref
// must never reach disk.
func (s *Store) WriteFileManifestTree(fm *FileManifest) (RecipeTreeStats, error) {
	var st RecipeTreeStats
	for _, r := range fm.Refs {
		if r.Size <= 0 || r.Start < 0 {
			return st, fmt.Errorf("store: file %q: degenerate ref %s[%d,+%d)",
				fm.File, r.Container.Short(), r.Start, r.Size)
		}
	}
	if len(fm.Refs) == 0 {
		return st, s.disk.Create(simdisk.FileManifest, fm.File, nil)
	}

	// Level 0: serialize refs as fixed records, cut, store leaves.
	stream := make([]byte, 0, len(fm.Refs)*refRecordBytes)
	for _, r := range fm.Refs {
		stream = append(stream, r.Container[:]...)
		stream = binary.BigEndian.AppendUint64(stream, uint64(r.Start))
		stream = binary.BigEndian.AppendUint64(stream, uint64(r.Size))
	}
	cuts, err := chunkRecords(stream, refRecordBytes, recipeECS(s.rcfg.LeafChunkBytes))
	if err != nil {
		return st, err
	}
	entries := make([]nodeEntry, 0, len(cuts))
	prev := 0
	for _, cut := range cuts {
		refs := fm.Refs[prev:cut]
		prev = cut
		sub := &FileManifest{File: fm.File, Refs: refs}
		payload := append([]byte{'R', recipeChunkVersion, 0}, CompressRecipe(sub)...)
		sum, created, err := s.storeRecipeChunk(payload)
		if err != nil {
			return st, fmt.Errorf("store: file %q: recipe leaf: %w", fm.File, err)
		}
		st.Leaves++
		st.LeafBytes += int64(len(payload))
		if created {
			st.NewChunks++
			st.NewLeafBytes += int64(len(payload))
		}
		entries = append(entries, nodeEntry{sum: sum, span: sub.TotalBytes(), refs: int64(len(refs))})
	}
	st.Depth = 1

	// Higher levels: serialize child records, cut, store nodes; repeat
	// until a single chunk remains. Each level has at most 1/(records per
	// chunk) of the previous level's entries, so this terminates fast.
	level := 0
	for len(entries) > 1 {
		level++
		if level > maxRecipeLevel {
			return st, fmt.Errorf("store: file %q: recipe tree deeper than %d levels", fm.File, maxRecipeLevel)
		}
		nstream := make([]byte, 0, len(entries)*nodeEntryBytes)
		for _, e := range entries {
			nstream = append(nstream, e.sum[:]...)
			nstream = binary.BigEndian.AppendUint64(nstream, uint64(e.span))
			nstream = binary.BigEndian.AppendUint32(nstream, uint32(e.refs))
		}
		ncuts, err := chunkRecords(nstream, nodeEntryBytes, recipeECS(s.rcfg.NodeChunkBytes))
		if err != nil {
			return st, err
		}
		parents := make([]nodeEntry, 0, len(ncuts))
		p := 0
		for _, cut := range ncuts {
			payload := append([]byte{'R', recipeChunkVersion, byte(level)},
				nstream[p*nodeEntryBytes:cut*nodeEntryBytes]...)
			var span, refs int64
			for _, e := range entries[p:cut] {
				span += e.span
				refs += e.refs
			}
			p = cut
			sum, created, err := s.storeRecipeChunk(payload)
			if err != nil {
				return st, fmt.Errorf("store: file %q: recipe node: %w", fm.File, err)
			}
			st.Nodes++
			st.NodeBytes += int64(len(payload))
			if created {
				st.NewChunks++
				st.NewNodeBytes += int64(len(payload))
			}
			parents = append(parents, nodeEntry{sum: sum, span: span, refs: refs})
		}
		entries = parents
		st.Depth++
	}

	root := entries[0]
	out := make([]byte, 0, recipeRootBytes)
	out = append(out, recipeRootMagic...)
	out = append(out, byte(level))
	out = append(out, root.sum[:]...)
	out = binary.BigEndian.AppendUint64(out, uint64(root.span))
	out = binary.BigEndian.AppendUint64(out, uint64(root.refs))
	if err := s.disk.Create(simdisk.FileManifest, fm.File, out); err != nil {
		return st, err
	}
	return st, nil
}

// IsRecipeTreeRoot reports whether a FileManifest payload is a recipe-tree
// root rather than a flat ref array.
func IsRecipeTreeRoot(data []byte) bool {
	return len(data) == recipeRootBytes && bytes.HasPrefix(data, recipeRootMagic)
}

// recipeRoot is a decoded tree root.
type recipeRoot struct {
	level      int
	sum        hashutil.Sum
	totalBytes int64
	totalRefs  int64
}

// decodeRecipeRoot parses and bounds-checks a root payload.
func decodeRecipeRoot(file string, data []byte) (recipeRoot, error) {
	if !IsRecipeTreeRoot(data) {
		return recipeRoot{}, fmt.Errorf("store: file %q: not a recipe-tree root", file)
	}
	var r recipeRoot
	r.level = int(data[8])
	copy(r.sum[:], data[9:9+hashutil.Size])
	tb := binary.BigEndian.Uint64(data[9+hashutil.Size:])
	tr := binary.BigEndian.Uint64(data[17+hashutil.Size:])
	if r.level > maxRecipeLevel || tb > math.MaxInt64 || tr > math.MaxInt64 {
		return recipeRoot{}, fmt.Errorf("store: file %q: recipe root out of range (level %d, %d bytes, %d refs)",
			file, r.level, tb, tr)
	}
	r.totalBytes, r.totalRefs = int64(tb), int64(tr)
	return r, nil
}

// readRecipeChunk loads one recipe chunk and proves it is the chunk the
// tree claims: the payload must hash to its own name (recipe chunks are
// self-verifying — no separate claims index needed) and carry exactly the
// level the parent expects. Transient read faults and flips heal on retry,
// as in the verified-restore path.
func readRecipeChunk(disk *simdisk.Disk, file string, sum hashutil.Sum, wantLevel, retries int) ([]byte, error) {
	name := sum.Hex()
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		data, err := disk.Read(simdisk.Recipe, name)
		if err != nil {
			lastErr = err
			continue
		}
		if hashutil.SumBytes(data) != sum {
			lastErr = fmt.Errorf("store: file %q: recipe chunk %s fails its content address", file, sum.Short())
			continue
		}
		if len(data) < recipeHeaderBytes || data[0] != 'R' || data[1] != recipeChunkVersion {
			return nil, fmt.Errorf("store: file %q: recipe chunk %s has a malformed header", file, sum.Short())
		}
		if int(data[2]) != wantLevel {
			return nil, fmt.Errorf("store: file %q: recipe chunk %s at level %d, expected %d",
				file, sum.Short(), data[2], wantLevel)
		}
		return data[recipeHeaderBytes:], nil
	}
	return nil, lastErr
}

// decodeNodeEntries parses an interior node's fixed records, rejecting
// degenerate spans the way Append rejects degenerate refs.
func decodeNodeEntries(file string, body []byte) ([]nodeEntry, error) {
	if len(body) == 0 || len(body)%nodeEntryBytes != 0 {
		return nil, fmt.Errorf("store: file %q: recipe node body of %d bytes is malformed", file, len(body))
	}
	out := make([]nodeEntry, 0, len(body)/nodeEntryBytes)
	for off := 0; off < len(body); off += nodeEntryBytes {
		var e nodeEntry
		copy(e.sum[:], body[off:])
		span := binary.BigEndian.Uint64(body[off+hashutil.Size:])
		refs := binary.BigEndian.Uint32(body[off+hashutil.Size+8:])
		if span == 0 || span > math.MaxInt64 || refs == 0 {
			return nil, fmt.Errorf("store: file %q: recipe node entry with degenerate span %d / refs %d",
				file, span, refs)
		}
		e.span, e.refs = int64(span), int64(refs)
		out = append(out, e)
	}
	return out, nil
}

// treeWalker descends a recipe tree appending the refs intersecting
// [off,end) — trimmed to it — onto fm, counting recipe chunk reads and
// recording every chunk name it visits (the GC mark set).
type treeWalker struct {
	disk    *simdisk.Disk
	file    string
	retries int
	reads   int
	chunks  []string
}

func (tw *treeWalker) walk(sum hashutil.Sum, level int, base, off, end int64, fm *FileManifest) error {
	body, err := readRecipeChunk(tw.disk, tw.file, sum, level, tw.retries)
	if err != nil {
		return err
	}
	tw.reads++
	tw.chunks = append(tw.chunks, sum.Hex())
	if level == 0 {
		leaf, err := DecompressRecipe(tw.file, body)
		if err != nil {
			return err
		}
		pos := base
		for _, r := range leaf.Refs {
			lo, hi := pos, pos+r.Size
			pos = hi
			if hi <= off {
				continue
			}
			if lo >= end {
				break
			}
			trimFront, cut := int64(0), hi
			if lo < off {
				trimFront = off - lo
			}
			if cut > end {
				cut = end
			}
			fm.Refs = append(fm.Refs, FileRef{
				Container: r.Container,
				Start:     r.Start + trimFront,
				Size:      cut - lo - trimFront,
			})
		}
		return nil
	}
	entries, err := decodeNodeEntries(tw.file, body)
	if err != nil {
		return err
	}
	pos := base
	for _, e := range entries {
		lo, hi := pos, pos+e.span
		pos = hi
		if hi <= off {
			continue
		}
		if lo >= end {
			break
		}
		if err := tw.walk(e.sum, level-1, lo, off, end, fm); err != nil {
			return err
		}
	}
	return nil
}

// materializeManifest decodes a FileManifest object payload in either
// format. For a tree root it walks the whole tree, verifies every chunk
// against its content address and checks the root's totals, returning the
// exact ref sequence alongside the visited chunk names (GC's mark set) and
// the number of recipe reads performed.
func materializeManifest(disk *simdisk.Disk, file string, data []byte, retries int) (*FileManifest, []string, int, error) {
	if !IsRecipeTreeRoot(data) {
		fm, err := DecodeFileManifest(file, data)
		return fm, nil, 0, err
	}
	root, err := decodeRecipeRoot(file, data)
	if err != nil {
		return nil, nil, 0, err
	}
	fm := &FileManifest{File: file}
	tw := &treeWalker{disk: disk, file: file, retries: retries}
	if err := tw.walk(root.sum, root.level, 0, 0, math.MaxInt64, fm); err != nil {
		return nil, tw.chunks, tw.reads, err
	}
	if got := fm.TotalBytes(); got != root.totalBytes || int64(len(fm.Refs)) != root.totalRefs {
		return nil, tw.chunks, tw.reads, fmt.Errorf(
			"store: file %q: recipe tree holds %d bytes in %d refs, root declares %d in %d",
			file, got, len(fm.Refs), root.totalBytes, root.totalRefs)
	}
	return fm, tw.chunks, tw.reads, nil
}

// loadFileManifestDisk is materializeManifest for callers that only want
// the refs.
func loadFileManifestDisk(disk *simdisk.Disk, file string, data []byte, retries int) (*FileManifest, error) {
	fm, _, _, err := materializeManifest(disk, file, data, retries)
	return fm, err
}

// MaterializeFileManifest decodes a FileManifest object payload in either
// format — flat, or a recipe-tree root whose chunks are read from disk.
func MaterializeFileManifest(disk *simdisk.Disk, file string, data []byte) (*FileManifest, error) {
	return loadFileManifestDisk(disk, file, data, 0)
}

// rangeManifestDisk builds the trimmed sub-manifest reconstructing file
// bytes [off, off+length) — length < 0 means to EOF — from a FileManifest
// payload in either format. Ranges past EOF clamp: an offset at or past
// the end restores zero bytes successfully. Returns the sub-manifest, the
// file's total size, and how many recipe chunks were read (the O(log n)
// the tree exists for; a flat recipe reads zero but walks every ref).
func rangeManifestDisk(disk *simdisk.Disk, file string, data []byte, off, length int64, retries int) (*FileManifest, int64, int, error) {
	if off < 0 {
		return nil, 0, 0, fmt.Errorf("store: restore %q: negative offset %d", file, off)
	}
	if off == 0 && length < 0 {
		// The whole file: materializing also holds a tree to its root's totals.
		fm, _, reads, err := materializeManifest(disk, file, data, retries)
		if err != nil {
			return nil, 0, reads, err
		}
		return fm, fm.TotalBytes(), reads, nil
	}
	end := int64(math.MaxInt64)
	if length >= 0 && off <= math.MaxInt64-length {
		end = off + length
	}
	sub := &FileManifest{File: file}
	if IsRecipeTreeRoot(data) {
		root, err := decodeRecipeRoot(file, data)
		if err != nil {
			return nil, 0, 0, err
		}
		if end > root.totalBytes {
			end = root.totalBytes
		}
		if off >= end {
			return sub, root.totalBytes, 0, nil
		}
		tw := &treeWalker{disk: disk, file: file, retries: retries}
		if err := tw.walk(root.sum, root.level, 0, off, end, sub); err != nil {
			return nil, root.totalBytes, tw.reads, err
		}
		return sub, root.totalBytes, tw.reads, nil
	}
	fm, err := DecodeFileManifest(file, data)
	if err != nil {
		return nil, 0, 0, err
	}
	total := fm.TotalBytes()
	if end > total {
		end = total
	}
	pos := int64(0)
	for _, r := range fm.Refs {
		lo, hi := pos, pos+r.Size
		pos = hi
		if hi <= off || r.Size <= 0 {
			continue
		}
		if lo >= end {
			break
		}
		trimFront, cut := int64(0), hi
		if lo < off {
			trimFront = off - lo
		}
		if cut > end {
			cut = end
		}
		sub.Refs = append(sub.Refs, FileRef{
			Container: r.Container,
			Start:     r.Start + trimFront,
			Size:      cut - lo - trimFront,
		})
	}
	return sub, total, 0, nil
}

// RangeStats describes one ranged restore.
type RangeStats struct {
	RestoreStats
	// RecipeReads is how many recipe chunks were read to find the
	// covering leaves — O(log n) on a tree, 0 on a flat recipe (which
	// instead decoded every ref).
	RecipeReads int
	// FileBytes is the file's total size; Offset and Length the range
	// actually restored after clamping to EOF.
	FileBytes, Offset, Length int64
}

// RestoreRange rebuilds file bytes [off, off+length) into w: one plan, one
// executor (restoreplan.go, restorepipe.go). length < 0 means to EOF; a
// range reaching past EOF is clamped (an offset at or past EOF restores
// zero bytes, successfully); a negative offset is an error. On a recipe
// tree the descent reads only the chunks covering the range.
func (s *Store) RestoreRange(file string, off, length int64, w io.Writer, opts RestoreOptions) (RangeStats, error) {
	return s.restoreRange(file, off, length, w, opts, nil)
}

// restoreRange is the one restore under every entry point, whole-file or
// ranged. Plain and verified (v non-nil, Verifier.RestoreRange) differ only
// in how a planned read is fetched, in how often recipe reads are retried,
// and in that a wide one may cut its reads (Verifier.splitReads).
func (s *Store) restoreRange(file string, off, length int64, w io.Writer, opts RestoreOptions, v *Verifier) (RangeStats, error) {
	read, retries := s.readPlanned, 0
	if v != nil {
		read, retries = v.readPlannedVerified, v.opts.retries()
	}
	raw, err := readRetry(s.disk, simdisk.FileManifest, file, retries)
	if err != nil {
		return RangeStats{}, fmt.Errorf("store: restore %q: %w", file, err)
	}
	sub, total, reads, err := rangeManifestDisk(s.disk, file, raw, off, length, retries)
	if err != nil {
		return RangeStats{RecipeReads: reads}, err
	}
	plan, err := planRestore(sub)
	if err != nil {
		return RangeStats{RecipeReads: reads, FileBytes: total}, err
	}
	if v != nil && opts.workers() > 1 && hashutil.Lanes() == 0 {
		v.splitReads(plan)
	}
	rs, err := s.runPlan(plan, read, w, opts)
	return RangeStats{RestoreStats: rs, RecipeReads: reads,
		FileBytes: total, Offset: off, Length: sub.TotalBytes()}, err
}

// ConvertToRecipeTrees rewrites every flat FileManifest in the store as a
// recipe tree (already-tree files are left alone), reporting per-file
// write statistics through perFile (nil to skip). Files are converted in
// sorted name order, so snapshot N+1 dedups against the freshly written
// tree of snapshot N exactly as it would have during ingest. Returns the
// number of files converted.
func (s *Store) ConvertToRecipeTrees(perFile func(file string, st RecipeTreeStats)) (int, error) {
	names := s.disk.Names(simdisk.FileManifest)
	sort.Strings(names)
	converted := 0
	for _, name := range names {
		raw, err := s.disk.Read(simdisk.FileManifest, name)
		if err != nil {
			return converted, fmt.Errorf("store: convert %q: %w", name, err)
		}
		if IsRecipeTreeRoot(raw) || len(raw) == 0 {
			continue
		}
		fm, err := DecodeFileManifest(name, raw)
		if err != nil {
			return converted, fmt.Errorf("store: convert %q: %w", name, err)
		}
		if err := s.disk.Delete(simdisk.FileManifest, name); err != nil {
			return converted, fmt.Errorf("store: convert %q: %w", name, err)
		}
		st, err := s.WriteFileManifestTree(fm)
		if err != nil {
			return converted, fmt.Errorf("store: convert %q: %w", name, err)
		}
		converted++
		if perFile != nil {
			perFile(name, st)
		}
	}
	return converted, nil
}
