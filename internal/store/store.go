package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"mhdedup/internal/events"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/simdisk"
)

// Container (DiskChunk) I/O latency histograms on the process-wide
// registry — the store-layer half of the hot-path instrumentation
// (values in nanoseconds). Pointers are resolved once; Observe is
// lock-free.
var (
	hContainerWriteNS = metrics.GetHistogram("store.container_write_ns")
	hContainerReadNS  = metrics.GetHistogram("store.container_read_ns")
)

// HookPayloadBytes is the size of one manifest address inside a hook file,
// per §IV: "each Hook contains a 20-byte SHA-1 address to the Manifest it
// belongs to".
const HookPayloadBytes = hashutil.Size

// Store ties the metadata formats to a simulated disk. All object names are
// 20-byte sums rendered as hex; FileManifests are keyed by the input file's
// name. A Store is bound to one manifest Format (one algorithm run).
//
// Store is safe for concurrent use: the name sequence is allocated with an
// atomic counter and every disk operation is serialized by the Disk itself.
// Note that Manifest objects handed out by ReadManifest are NOT implicitly
// guarded — callers that share a manifest across goroutines must hold its
// lock (Manifest.Lock/Unlock) around reads and mutations.
type Store struct {
	disk   *simdisk.Disk
	format Format
	seq    atomic.Uint64

	// ev, when set via SetEventLog, receives restore-pipeline slow-op and
	// summary events. Nil (the default) discards them.
	ev *events.Log

	// rcfg selects how WriteFileManifest stores recipes (flat vs recipe
	// trees). Reads are always format-blind. See recipetree.go.
	rcfg RecipeConfig
}

// New returns a Store over disk using the given manifest format.
func New(disk *simdisk.Disk, format Format) *Store {
	return &Store{disk: disk, format: format}
}

// Disk exposes the underlying simulated disk (for counters and metrics).
func (s *Store) Disk() *simdisk.Disk { return s.disk }

// Format returns the manifest format the store was built with.
func (s *Store) Format() Format { return s.format }

// NextName returns a fresh hash-shaped object name. DiskChunks and
// Manifests share the name (a Manifest describes the DiskChunk of the same
// name); deriving names from a sequence number instead of content keeps
// them unique even when two files happen to store identical bytes. When a
// Store is resumed over an existing disk the sequence restarts, so names
// are probed against the disk (no access charged) until a fresh one is
// found. Concurrent callers receive distinct names (the sequence is
// atomic), so two ingest sessions can never collide on a DiskChunk name.
func (s *Store) NextName() hashutil.Sum {
	for {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], s.seq.Add(1))
		name := hashutil.SumBytes(b[:])
		if _, used := s.disk.Size(simdisk.Data, name.Hex()); used {
			continue
		}
		if _, used := s.disk.Size(simdisk.Manifest, name.Hex()); used {
			continue
		}
		return name
	}
}

// WriteDiskChunk stores the data payload of a DiskChunk.
func (s *Store) WriteDiskChunk(name hashutil.Sum, data []byte) error {
	defer hContainerWriteNS.ObserveSince(time.Now())
	return s.disk.Create(simdisk.Data, name.Hex(), data)
}

// StageDiskChunk hands the disk's log the next run of chunks, at offset off,
// of a DiskChunk still being cut, so the container is on its way to the
// platter before its file ends; SealDiskChunk then stores the whole
// payload — the one Create the paper charges per file — taking ownership of
// data, and the log journals a seal instead of the bytes again. A file
// that fails before its seal calls UnstageDiskChunk. See simdisk.Disk.Stage.
func (s *Store) StageDiskChunk(name hashutil.Sum, off int64, parts [][]byte) {
	s.disk.Stage(simdisk.Data, name.Hex(), off, parts)
}

// SealDiskChunk: see StageDiskChunk.
func (s *Store) SealDiskChunk(name hashutil.Sum, data []byte) error {
	defer hContainerWriteNS.ObserveSince(time.Now())
	return s.disk.CreateOwned(simdisk.Data, name.Hex(), data)
}

// UnstageDiskChunk: see StageDiskChunk.
func (s *Store) UnstageDiskChunk(name hashutil.Sum) { s.disk.Unstage(simdisk.Data, name.Hex()) }

// DiskChunkSize returns the stored size of a DiskChunk without a disk
// access.
func (s *Store) DiskChunkSize(name hashutil.Sum) (int64, bool) {
	return s.disk.Size(simdisk.Data, name.Hex())
}

// ReadDiskChunkRange reads part of a stored DiskChunk — an HHR reload or a
// restore's container read, one disk access — as a view of the stored bytes
// that its holders must never write to (simdisk.Disk.ReadRange).
func (s *Store) ReadDiskChunkRange(name hashutil.Sum, off, length int64) ([]byte, error) {
	start := time.Now()
	data, err := s.disk.ReadRange(simdisk.Data, name.Hex(), off, length)
	hContainerReadNS.ObserveSince(start)
	return data, err
}

// CreateManifest writes a new manifest object.
func (s *Store) CreateManifest(m *Manifest) error {
	if err := s.disk.Create(simdisk.Manifest, m.Name.Hex(), m.Encode()); err != nil {
		return err
	}
	m.MarkClean()
	return nil
}

// WriteBackManifest rewrites a dirty manifest in place (the only metadata
// files updated during deduplication, per §III). Writing back a clean
// manifest is a no-op costing no disk access.
func (s *Store) WriteBackManifest(m *Manifest) error {
	if !m.Dirty() {
		return nil
	}
	if err := s.disk.Write(simdisk.Manifest, m.Name.Hex(), m.Encode()); err != nil {
		return err
	}
	m.MarkClean()
	return nil
}

// ReadManifest loads a manifest from disk (one disk access).
func (s *Store) ReadManifest(name hashutil.Sum) (*Manifest, error) {
	data, err := s.disk.Read(simdisk.Manifest, name.Hex())
	if err != nil {
		return nil, err
	}
	return DecodeManifest(name, s.format, data)
}

// HookExists queries the disk for a hook object (one disk access — the
// lookup the bloom filter exists to avoid).
func (s *Store) HookExists(h hashutil.Sum) bool {
	return s.disk.Exists(simdisk.Hook, h.Hex())
}

// HookKnown reports whether a hook object exists without charging a disk
// access: it models knowledge the deduplicator already has in RAM (its own
// bloom filter and recently written hooks) when deciding whether to write a
// hook at file finalization.
func (s *Store) HookKnown(h hashutil.Sum) bool {
	_, ok := s.disk.Size(simdisk.Hook, h.Hex())
	return ok
}

// CreateHook writes a hook object mapping hash h to one manifest.
func (s *Store) CreateHook(h, manifest hashutil.Sum) error {
	return s.disk.Create(simdisk.Hook, h.Hex(), manifest[:])
}

// ReadHook returns the manifest addresses a hook points to (one disk
// access). MHD hooks contain exactly one; SparseIndexing hooks up to its
// per-hook manifest cap.
func (s *Store) ReadHook(h hashutil.Sum) ([]hashutil.Sum, error) {
	data, err := s.disk.Read(simdisk.Hook, h.Hex())
	if err != nil {
		return nil, err
	}
	if len(data) == 0 || len(data)%HookPayloadBytes != 0 {
		return nil, fmt.Errorf("store: hook %s payload of %d bytes is malformed", h, len(data))
	}
	out := make([]hashutil.Sum, len(data)/HookPayloadBytes)
	for i := range out {
		copy(out[i][:], data[i*HookPayloadBytes:])
	}
	return out, nil
}

// AddHookTarget adds a manifest address to a hook, creating the hook if
// needed. When the hook already holds maxTargets addresses the oldest is
// dropped (the LRU policy SparseIndexing applies to its hook→manifest
// mapping). MHD never calls this with an existing hook.
func (s *Store) AddHookTarget(h, manifest hashutil.Sum, maxTargets int) error {
	if maxTargets <= 0 {
		return fmt.Errorf("store: maxTargets must be positive, got %d", maxTargets)
	}
	if !s.disk.Exists(simdisk.Hook, h.Hex()) {
		return s.CreateHook(h, manifest)
	}
	targets, err := s.ReadHook(h)
	if err != nil {
		return err
	}
	for _, t := range targets {
		if t == manifest {
			return nil // already present; no write needed
		}
	}
	targets = append(targets, manifest)
	if len(targets) > maxTargets {
		targets = targets[len(targets)-maxTargets:]
	}
	payload := make([]byte, 0, len(targets)*HookPayloadBytes)
	for _, t := range targets {
		payload = append(payload, t[:]...)
	}
	return s.disk.Write(simdisk.Hook, h.Hex(), payload)
}

// WriteFileManifest stores the reconstruction recipe for one input file —
// flat by default, as a recipe tree when the store's RecipeConfig says so.
// The flat encoder refuses refs outside its 32-bit fields; such manifests
// require the tree format.
func (s *Store) WriteFileManifest(fm *FileManifest) error {
	if s.rcfg.Trees {
		_, err := s.WriteFileManifestTree(fm)
		return err
	}
	data, err := fm.Encode()
	if err != nil {
		return err
	}
	return s.disk.Create(simdisk.FileManifest, fm.File, data)
}

// ReadFileManifest loads the recipe for file, materializing recipe trees
// transparently (the payload's root magic decides the format).
func (s *Store) ReadFileManifest(file string) (*FileManifest, error) {
	data, err := s.disk.Read(simdisk.FileManifest, file)
	if err != nil {
		return nil, err
	}
	return loadFileManifestDisk(s.disk, file, data, 0)
}

// RestoreFile rebuilds an input file into w: RestoreRange from offset 0 to
// EOF under the zero RestoreOptions, so the recipe is planned into
// coalesced container reads fetched one at a time on the calling
// goroutine. Restores performed after deduplication statistics have been
// snapshotted do not perturb them.
func (s *Store) RestoreFile(file string, w io.Writer) error {
	_, err := s.RestoreRange(file, 0, -1, w, RestoreOptions{})
	return err
}
