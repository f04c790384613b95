// Package store implements the on-disk metadata formats of the paper's
// system architecture (Fig 3): DiskChunks, DiskChunkManifests ("Manifests"),
// Hooks and FileManifests, all stored as hash-addressable objects on a
// simdisk.Disk.
//
// Byte costs follow §IV exactly: a manifest entry is 36 bytes (20-byte SHA-1
// + byte start + byte size), MHD's format adds a 1-byte Hook flag (37),
// SubChunk-style multi-container manifests charge 28 bytes per referenced
// container for the small-chunk-to-container mapping, hook payloads are 20
// bytes, and every stored object costs one 256-byte inode (accounted by
// simdisk).
package store

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"mhdedup/internal/hashutil"
)

// EntryKind classifies a manifest entry. The paper's format has a one-byte
// "Hook flag"; we use the same byte as a three-state kind, which costs
// nothing extra and lets match extension decide whether an entry is a
// merged region that may be reloaded and re-chunked.
type EntryKind byte

const (
	// KindPlain is a single chunk's hash (including EdgeHashes created by
	// HHR). Plain entries are never re-chunked — that is what stops a
	// duplicate slice from triggering the same HHR twice.
	KindPlain EntryKind = iota
	// KindHook marks the entry as a sampled Hook: its hash also exists as
	// an on-disk hook object and in the bloom filter.
	KindHook
	// KindMerged is an SHM-merged region: one hash covering what were
	// several chunks. Merged entries are the only ones HHR will split.
	KindMerged
)

// String returns the kind name.
func (k EntryKind) String() string {
	switch k {
	case KindPlain:
		return "plain"
	case KindHook:
		return "hook"
	case KindMerged:
		return "merged"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// Format selects a manifest's serialization and byte-accounting scheme.
type Format int

const (
	// FormatBasic is the 36-byte-entry format used by CDC and Bimodal:
	// each entry is hash(20) + start(8) + size(8) and refers to the
	// manifest's own DiskChunk.
	FormatBasic Format = iota
	// FormatMHD is FormatBasic plus the one-byte kind/Hook flag: 37 bytes
	// per entry.
	FormatMHD
	// FormatMultiContainer is the SubChunk/SparseIndexing format: entries
	// are hash(20) + start(8) + size(4) + container index(4) = 36 bytes,
	// preceded by a container table charging 28 bytes per referenced
	// DiskChunk (20-byte name + chunk count + byte count) and a 4-byte
	// table length.
	FormatMultiContainer
)

// EntrySize returns the per-entry byte cost of the format.
func (f Format) EntrySize() int {
	switch f {
	case FormatMHD:
		return 37
	default:
		return 36
	}
}

// ContainerEntryBytes is the per-container cost in FormatMultiContainer,
// per §IV: "the entries for the small chunks belonging to the same
// DiskChunk in the Manifests need to share 28 bytes".
const ContainerEntryBytes = 28

// Entry is one manifest entry: a hash describing Size bytes of a DiskChunk
// starting at Start. Container names the DiskChunk holding the bytes; the
// zero Sum means the manifest's own DiskChunk (the only possibility outside
// FormatMultiContainer).
type Entry struct {
	Hash      hashutil.Sum
	Container hashutil.Sum
	Start     int64
	Size      int64
	Kind      EntryKind
}

// Manifest is a DiskChunkManifest: the ordered sequence of hash entries
// describing one DiskChunk (or, for FormatMultiContainer, one segment whose
// chunks may live in several DiskChunks). The zero value is not usable;
// construct with NewManifest or Store.ReadManifest.
//
// A Manifest is not implicitly synchronized. Single-stream engines use it
// bare; the concurrent ingest engine shares cache-resident manifests across
// sessions and brackets every access (Lookup, Fact, Learn, entry walks,
// Splice, Defer, Unnamed, Fill, Encode) with Lock/Unlock. The lock lives
// here so that the eviction write-back and a match extension in another
// goroutine serialize on the same mutex.
type Manifest struct {
	// Name is the manifest's hash-addressable name. For single-container
	// formats it is also the name of the DiskChunk it describes.
	Name    hashutil.Sum
	Format  Format
	Entries []Entry

	mu    sync.Mutex
	dirty bool
	index map[hashutil.Sum]int
	// facts maps an entry hash H to K, the SHA-1 of the chunk digests of a
	// run whose bytes hashed to H: RAM-only, never encoded nor counted, and
	// gone with the object when the cache evicts it.
	facts map[hashutil.Sum]hashutil.Sum
	// unnamed maps the Start of each entry whose Hash is not known yet (an
	// HHR piece, left for its stream to name later; FormatMHD only) to its
	// bytes: its Hash is the zero Sum until Fill or Encode sets it.
	unnamed map[int64][]byte
}

// Lock acquires the manifest's mutex. Callers sharing a manifest across
// goroutines must hold it around every read or mutation, including Encode.
func (m *Manifest) Lock() { m.mu.Lock() }

// Unlock releases the manifest's mutex.
func (m *Manifest) Unlock() { m.mu.Unlock() }

// NewManifest returns an empty manifest with the given name and format.
func NewManifest(name hashutil.Sum, format Format) *Manifest {
	return &Manifest{
		Name:    name,
		Format:  format,
		index:   make(map[hashutil.Sum]int),
		facts:   make(map[hashutil.Sum]hashutil.Sum),
		unnamed: make(map[int64][]byte),
	}
}

// Append adds an entry at the end.
func (m *Manifest) Append(e Entry) {
	m.Entries = append(m.Entries, e)
	if _, dup := m.index[e.Hash]; !dup {
		m.index[e.Hash] = len(m.Entries) - 1
	}
}

// Lookup returns the index of the first entry with the given hash — the
// manifest-as-hash-table query of Fig 4.
func (m *Manifest) Lookup(h hashutil.Sum) (int, bool) {
	i, ok := m.index[h]
	return i, ok
}

// Fact returns the K learned for h (see Learn), the zero Sum if none.
func (m *Manifest) Fact(h hashutil.Sum) hashutil.Sum { return m.facts[h] }

// Learn records that a run whose chunk digests hash to k has bytes that
// hash to h: a fact about SHA-1, not about an entry, so a splice keeps it.
func (m *Manifest) Learn(h, k hashutil.Sum) { m.facts[h] = k }

// ContainerOf returns the DiskChunk name holding entry e's bytes.
func (m *Manifest) ContainerOf(e Entry) hashutil.Sum {
	if !e.Container.IsZero() {
		return e.Container
	}
	return m.Name
}

// Splice replaces the entry at index i with the given replacements, keeping
// order, reindexing, and marking the manifest dirty. It is the HHR
// primitive: one merged entry becomes up to three new entries.
func (m *Manifest) Splice(i int, repl ...Entry) error {
	if i < 0 || i >= len(m.Entries) {
		return fmt.Errorf("store: splice index %d out of range [0,%d)", i, len(m.Entries))
	}
	out := make([]Entry, 0, len(m.Entries)-1+len(repl))
	out = append(out, m.Entries[:i]...)
	out = append(out, repl...)
	out = append(out, m.Entries[i+1:]...)
	delete(m.unnamed, m.Entries[i].Start)
	m.Entries = out
	m.reindex()
	m.dirty = true
	return nil
}

func (m *Manifest) reindex() {
	m.index = make(map[hashutil.Sum]int, len(m.Entries))
	for i, e := range m.Entries {
		if _, dup := m.index[e.Hash]; !dup {
			m.index[e.Hash] = i
		}
	}
}

// Defer leaves the entry at start unnamed, data its bytes (see unnamed).
func (m *Manifest) Defer(start int64, data []byte) { m.unnamed[start] = data }

// Unnamed returns the bytes of e, an entry of m, while its Hash is not known.
func (m *Manifest) Unnamed(e Entry) []byte { return m.unnamed[e.Start] }

// Fill gives the unnamed entry at start its hash h if it is still the one
// of size bytes: a splice may have replaced it since, or Encode named it.
// An entry of the same start and size is the same bytes of the same
// container, so it has the same hash.
func (m *Manifest) Fill(start, size int64, h hashutil.Sum) {
	if data, ok := m.unnamed[start]; !ok || int64(len(data)) != size {
		return
	}
	delete(m.unnamed, start)
	i, _ := slices.BinarySearchFunc(m.Entries, start, func(e Entry, s int64) int { return cmp.Compare(e.Start, s) })
	m.Entries[i].Hash = h
	if j, ok := m.index[h]; !ok || i < j {
		m.index[h] = i
	}
}

// Dirty reports whether the manifest has unwritten modifications.
func (m *Manifest) Dirty() bool { return m.dirty }

// MarkClean clears the dirty flag (done by Store after write-back).
func (m *Manifest) MarkClean() { m.dirty = false }

// MarkDirty sets the dirty flag.
func (m *Manifest) MarkDirty() { m.dirty = true }

// ByteSize returns the manifest's serialized size under its format's
// accounting.
func (m *Manifest) ByteSize() int {
	n := len(m.Entries) * m.Format.EntrySize()
	if m.Format == FormatMultiContainer {
		n += 4 + len(m.containers())*ContainerEntryBytes
	}
	return n
}

// containers returns the distinct container names referenced by entries, in
// first-use order. The zero Sum (own chunk) is included if used.
func (m *Manifest) containers() []hashutil.Sum {
	var order []hashutil.Sum
	seen := make(map[hashutil.Sum]bool)
	for _, e := range m.Entries {
		if !seen[e.Container] {
			seen[e.Container] = true
			order = append(order, e.Container)
		}
	}
	return order
}

// summary counts the entries whose bytes are in container c, and the bytes.
func (m *Manifest) summary(c hashutil.Sum) (chunks, bytes uint32) {
	for _, e := range m.Entries {
		if e.Container == c {
			chunks++
			bytes += uint32(e.Size)
		}
	}
	return chunks, bytes
}

// Encode serializes the manifest. The output length always equals
// ByteSize(), which is how simdisk's byte counters reproduce Table I. It
// names every unnamed entry first, so no zero hash is ever written.
func (m *Manifest) Encode() []byte {
	for start, data := range m.unnamed {
		m.Fill(start, int64(len(data)), hashutil.SumBytes(data))
	}
	out := make([]byte, 0, m.ByteSize())
	switch m.Format {
	case FormatBasic, FormatMHD:
		for _, e := range m.Entries {
			out = append(out, e.Hash[:]...)
			out = binary.BigEndian.AppendUint64(out, uint64(e.Start))
			out = binary.BigEndian.AppendUint64(out, uint64(e.Size))
			if m.Format == FormatMHD {
				out = append(out, byte(e.Kind))
			}
		}
	case FormatMultiContainer:
		containers := m.containers()
		idx := make(map[hashutil.Sum]uint32, len(containers))
		out = binary.BigEndian.AppendUint32(out, uint32(len(containers)))
		for i, c := range containers {
			idx[c] = uint32(i)
			out = append(out, c[:]...)
			// Chunk count and byte count within this container: summary
			// bookkeeping included in the 28-byte budget.
			chunks, bytes := m.summary(c)
			out = binary.BigEndian.AppendUint32(out, chunks)
			out = binary.BigEndian.AppendUint32(out, bytes)
		}
		for _, e := range m.Entries {
			out = append(out, e.Hash[:]...)
			out = binary.BigEndian.AppendUint64(out, uint64(e.Start))
			out = binary.BigEndian.AppendUint32(out, uint32(e.Size))
			out = binary.BigEndian.AppendUint32(out, idx[e.Container])
		}
	}
	return out
}

// DecodeManifest parses data written by Encode. name and format must be
// supplied by the caller (they are part of the object's identity, not its
// payload, exactly as a file's name is not inside the file).
func DecodeManifest(name hashutil.Sum, format Format, data []byte) (*Manifest, error) {
	m := NewManifest(name, format)
	switch format {
	case FormatBasic, FormatMHD:
		stride := format.EntrySize()
		if len(data)%stride != 0 {
			return nil, fmt.Errorf("store: manifest payload %d bytes is not a multiple of %d", len(data), stride)
		}
		for off := 0; off < len(data); off += stride {
			var e Entry
			copy(e.Hash[:], data[off:off+20])
			e.Start = int64(binary.BigEndian.Uint64(data[off+20 : off+28]))
			e.Size = int64(binary.BigEndian.Uint64(data[off+28 : off+36]))
			if format == FormatMHD {
				e.Kind = EntryKind(data[off+36])
				if e.Kind > KindMerged {
					return nil, fmt.Errorf("store: invalid entry kind %d", e.Kind)
				}
			}
			m.Append(e)
		}
	case FormatMultiContainer:
		if len(data) < 4 {
			return nil, fmt.Errorf("store: multi-container manifest too short")
		}
		nc := binary.BigEndian.Uint32(data[:4])
		tableEnd := 4 + int(nc)*ContainerEntryBytes
		if tableEnd > len(data) || (len(data)-tableEnd)%36 != 0 {
			return nil, fmt.Errorf("store: malformed multi-container manifest (%d bytes, %d containers)", len(data), nc)
		}
		containers := make([]hashutil.Sum, nc)
		for i := 0; i < int(nc); i++ {
			copy(containers[i][:], data[4+i*ContainerEntryBytes:])
		}
		for off := tableEnd; off < len(data); off += 36 {
			var e Entry
			copy(e.Hash[:], data[off:off+20])
			e.Start = int64(binary.BigEndian.Uint64(data[off+20 : off+28]))
			e.Size = int64(binary.BigEndian.Uint32(data[off+28 : off+32]))
			ci := binary.BigEndian.Uint32(data[off+32 : off+36])
			if int(ci) >= len(containers) {
				return nil, fmt.Errorf("store: container index %d out of range", ci)
			}
			e.Container = containers[ci]
			m.Append(e)
		}
		// The payload must be canonical — the container table in first-use
		// order with correct per-container summaries — or re-encoding would
		// silently change bytes. Reject anything else as corruption.
		derived := m.containers()
		if len(derived) != len(containers) {
			return nil, fmt.Errorf("store: container table has %d entries, %d referenced", len(containers), len(derived))
		}
		for i, c := range derived {
			if containers[i] != c {
				return nil, fmt.Errorf("store: container table not in first-use order at %d", i)
			}
			chunks, bytes := m.summary(c)
			base := 4 + i*ContainerEntryBytes + 20
			if binary.BigEndian.Uint32(data[base:base+4]) != chunks ||
				binary.BigEndian.Uint32(data[base+4:base+8]) != bytes {
				return nil, fmt.Errorf("store: container %d summary counts are inconsistent", i)
			}
		}
	default:
		return nil, fmt.Errorf("store: unknown manifest format %d", format)
	}
	return m, nil
}
