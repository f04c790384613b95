// Package simdisk is the simulated storage substrate the deduplicators
// write to.
//
// The paper's prototypes ran in user space on Ext3 and measured metadata
// overhead in inodes, bytes and disk-access counts (Tables I and II), and
// throughput as a ratio derived from those I/Os. simdisk replaces the file
// system with an in-memory, hash-addressable object store that makes
// exactly those quantities first-class: every Create/Read/Write/Exists is
// one "disk access" (the unit Table II counts), every stored object costs
// one inode of 256 bytes (the paper's assumption in §IV), and byte counters
// are kept per metadata category so Fig 7's breakdown can be produced
// directly. A CostModel converts the counters into time for the
// ThroughputRatio metric.
package simdisk

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Category classifies stored objects the way the paper's analysis does.
type Category int

const (
	// Data holds DiskChunk payloads (the deduplicated data itself).
	Data Category = iota
	// Hook holds hook files: 20-byte pointers from a sampled hash to its
	// manifest.
	Hook
	// Manifest holds DiskChunkManifests.
	Manifest
	// FileManifest holds per-input-file reconstruction recipes.
	FileManifest
	// Recipe holds content-addressed recipe-tree chunks: pieces of a
	// FileManifest's serialized ref stream (and of the interior tree
	// nodes above them), named by the SHA-1 of their payload so sibling
	// snapshots' recipes share unchanged subtrees.
	Recipe

	numCategories
)

var categoryNames = [...]string{"data", "hook", "manifest", "filemanifest", "recipe"}

// String returns the category name.
func (c Category) String() string {
	if c < 0 || int(c) >= len(categoryNames) {
		return fmt.Sprintf("category(%d)", int(c))
	}
	return categoryNames[c]
}

// InodeBytes is the storage-management cost charged per stored object,
// per the paper's assumption of 256 bytes per inode.
const InodeBytes = 256

// Op identifies a disk operation for counters and failure injection.
type Op int

const (
	OpCreate Op = iota
	OpRead
	OpWrite
	OpExists
	OpDelete
)

var opNames = [...]string{"create", "read", "write", "exists", "delete"}

// String returns the operation name.
func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// PerCategory holds one int64 counter per object category.
type PerCategory [numCategories]int64

// Get returns the counter for c.
func (p PerCategory) Get(c Category) int64 { return p[c] }

// Total returns the sum over categories.
func (p PerCategory) Total() int64 {
	var t int64
	for _, v := range p {
		t += v
	}
	return t
}

// Counters aggregates every disk access made through a Disk. The fields map
// one-to-one onto the rows of the paper's Table II: Creates[Data] is "Chunk
// Output Times", Reads[Data] is "Chunk Input Times" (HHR byte reloads),
// Creates[Hook]/Reads[Hook] are hook output/input, Creates+Writes[Manifest]
// are manifest output and Reads[Manifest] manifest input, and MissedLookups
// counts existence queries that found nothing (the queries a bloom filter
// eliminates).
type Counters struct {
	Creates       PerCategory
	Reads         PerCategory
	Writes        PerCategory
	ExistsQueries PerCategory
	Deletes       PerCategory
	MissedLookups PerCategory
	BytesRead     PerCategory
	BytesWritten  PerCategory
}

// Accesses returns the total number of disk accesses — the unit of the
// paper's Table II ("disk accessing times").
func (c Counters) Accesses() int64 {
	return c.Creates.Total() + c.Reads.Total() + c.Writes.Total() +
		c.ExistsQueries.Total() + c.Deletes.Total()
}

// Disk is the simulated disk. The zero value is not usable; construct with
// New. Disk is safe for concurrent use: a single mutex serializes every
// operation, so the access and byte counters — the inputs of the disk cost
// model — stay exact no matter how many ingest sessions run at once. The
// lock models what a real spindle serializes anyway (each Create/Read/Write
// is "one disk access" in the paper's accounting), and the operations under
// it are map lookups and memcpy, so it is never the scaling bottleneck:
// chunking and SHA-1 dominate and run outside it.
type Disk struct {
	mu       sync.Mutex
	objects  [numCategories]map[string][]byte
	counters Counters

	// failHook, when non-nil, is consulted before every operation; a
	// non-nil return aborts the operation with that error. Used for
	// failure-injection tests. It is called with the disk lock held and
	// must not call back into the Disk.
	failHook func(Op, Category, string) error

	// saveHook, when non-nil, is consulted before every file-system
	// mutation SaveDir performs (see SaveHook in persist.go). It is the
	// kill-point mechanism of the crash-consistency harness.
	saveHook SaveHook

	// readTransform, when non-nil, post-processes the copy returned by
	// every Read/ReadRange. The stored object is untouched, so it models
	// transient corruption on the read path (bus/RAM flips) that a
	// re-read heals. Called with the disk lock held; must not call back
	// into the Disk.
	readTransform func(Category, string, []byte) []byte

	// readDelay (nanoseconds), when non-zero, is slept by every
	// Read/ReadRange *after* the disk lock is released: it models
	// per-read device latency (seek/flash access) on a device that still
	// accepts concurrent requests, the way an NVMe queue or a RAID spreads
	// reads. Concurrent readers overlap their delays, a serial reader pays
	// them back to back — exactly the asymmetry the parallel restore
	// pipeline exists to exploit, and what the restore benchmark measures.
	readDelay atomic.Int64

	// wal, when non-nil, journals every successful Create/Write/Delete as
	// a delta record (see wal.go), by reference to the stored bytes — stored
	// objects are replaced, never modified. Appends happen under d.mu, which
	// is what guarantees log order == mutation order; durability is
	// deferred to WAL.Sync (group commit).
	wal *WAL
}

// New returns an empty simulated disk.
func New() *Disk {
	d := &Disk{}
	for i := range d.objects {
		d.objects[i] = make(map[string][]byte)
	}
	return d
}

// SetFailureHook installs fn as a fault injector: it is called before every
// operation and may return an error to abort it. Pass nil to clear.
func (d *Disk) SetFailureHook(fn func(op Op, cat Category, name string) error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failHook = fn
}

// SetReadTransform installs fn to post-process the bytes returned by every
// Read/ReadRange (the stored object stays intact — the corruption is
// transient and heals on re-read). Pass nil to clear. Used by fault-
// injection tests to exercise bounded-retry verification on the real data
// path.
func (d *Disk) SetReadTransform(fn func(cat Category, name string, data []byte) []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.readTransform = fn
}

// SetWAL attaches w as the disk's write-ahead delta log: every successful
// Create/Write/Delete from here on is journaled as a delta record, and a
// SaveDir into the WAL's own store directory folds the log into the new
// generation (compaction). Pass nil to detach. The WAL must belong to the
// directory the disk is persisted into; attach it right after
// LoadDir+ReplayWAL, before any mutation (Mount does all three).
func (d *Disk) SetWAL(w *WAL) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.wal = w
}

func (d *Disk) check(op Op, cat Category, name string) error {
	if cat < 0 || cat >= numCategories {
		return fmt.Errorf("simdisk: invalid category %d", int(cat))
	}
	if d.failHook != nil {
		if err := d.failHook(op, cat, name); err != nil {
			return fmt.Errorf("simdisk: injected failure on %v %v %q: %w", op, cat, name, err)
		}
	}
	return nil
}

// Create stores a new object. It is an error if the object already exists:
// DiskChunks and Hooks are immutable once written (per §III, "the DiskChunk
// and the Hook files that have been written to disk will not be further
// modified").
func (d *Disk) Create(cat Category, name string, data []byte) error {
	return d.put(OpCreate, cat, name, append([]byte(nil), data...))
}

// CreateOwned is Create without the copy: the disk keeps data itself, so the
// caller must never touch it again. If the attached log was handed every
// byte of it beforehand (Stage), the create is journaled as their seal.
func (d *Disk) CreateOwned(cat Category, name string, data []byte) error {
	return d.put(OpCreate, cat, name, data)
}

// Write replaces the content of an existing object (only Manifests are
// updated in place during deduplication).
func (d *Disk) Write(cat Category, name string, data []byte) error {
	return d.put(OpWrite, cat, name, append([]byte(nil), data...))
}

// put stores data, which the disk owns from here on, as a new object
// (OpCreate) or in place of an existing one (OpWrite).
func (d *Disk) put(op Op, cat Category, name string, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(op, cat, name); err != nil {
		return err
	}
	if _, exists := d.objects[cat][name]; exists && op == OpCreate {
		return fmt.Errorf("simdisk: %v object %q already exists", cat, name)
	} else if !exists && op == OpWrite {
		return fmt.Errorf("simdisk: %v object %q does not exist", cat, name)
	}
	d.objects[cat][name] = data
	if op == OpCreate {
		d.counters.Creates[cat]++
	} else {
		d.counters.Writes[cat]++
	}
	d.counters.BytesWritten[cat] += int64(len(data))
	if d.wal != nil {
		d.wal.Append(WALRecord{Op: WALSet, Cat: cat, Name: name, Data: data})
	}
	return nil
}

// Stage hands the attached log the next bytes, at offset off, of an object
// that a later CreateOwned will store whole: they reach the log (and, past
// its write-back threshold, the platter) while the object is still being
// assembled, and stay invisible to every reader and every mount until that
// create seals them. parts are kept by reference and must not change. No
// access is charged — the one Create is — and without a log nothing happens.
// Unstage forgets the extents of an object that will never be created.
func (d *Disk) Stage(cat Category, name string, off int64, parts [][]byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wal != nil && cat >= 0 && cat < numCategories {
		d.wal.Append(WALRecord{Op: WALExtent, Cat: cat, Name: name, Off: off, Parts: parts})
	}
}

// Unstage: see Stage.
func (d *Disk) Unstage(cat Category, name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wal != nil {
		d.wal.unstage(cat, name)
	}
}

// Delete removes an object (one disk access). Deleting a missing object is
// an error.
func (d *Disk) Delete(cat Category, name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(OpDelete, cat, name); err != nil {
		return err
	}
	if _, exists := d.objects[cat][name]; !exists {
		return fmt.Errorf("simdisk: %v object %q does not exist", cat, name)
	}
	delete(d.objects[cat], name)
	d.counters.Deletes[cat]++
	if d.wal != nil {
		d.wal.Append(WALRecord{Op: WALDelete, Cat: cat, Name: name})
	}
	return nil
}

// SetReadDelay installs a per-read latency of delay (zero clears it):
// every Read/ReadRange sleeps that long after releasing the disk lock, so
// concurrent readers overlap their waits while a serial reader pays them
// back to back. Restore benchmarks use it to model a real device's read
// latency; the default is zero (pure RAM, as the paper's accounting
// assumes).
func (d *Disk) SetReadDelay(delay time.Duration) {
	if delay < 0 {
		delay = 0
	}
	d.readDelay.Store(int64(delay))
}

// sleepRead pays the configured per-read latency. Called outside the
// lock.
func (d *Disk) sleepRead() {
	if delay := d.readDelay.Load(); delay > 0 {
		time.Sleep(time.Duration(delay))
	}
}

// Read returns a copy of the object's content.
func (d *Disk) Read(cat Category, name string) ([]byte, error) {
	out, err := d.readLocked(cat, name, 0, 0, true)
	d.sleepRead()
	return out, err
}

// ReadRange returns length bytes of the object starting at off. It is the
// primitive HHR uses to reload part of an old DiskChunk, and counts as one
// disk access like Read.
func (d *Disk) ReadRange(cat Category, name string, off, length int64) ([]byte, error) {
	out, err := d.readLocked(cat, name, off, length, false)
	d.sleepRead()
	return out, err
}

// readLocked is Read (whole: every byte, whatever off and length say) and
// ReadRange.
func (d *Disk) readLocked(cat Category, name string, off, length int64, whole bool) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(OpRead, cat, name); err != nil {
		return nil, err
	}
	data, exists := d.objects[cat][name]
	if !exists {
		d.counters.MissedLookups[cat]++
		return nil, fmt.Errorf("simdisk: %v object %q does not exist", cat, name)
	}
	if whole {
		off, length = 0, int64(len(data))
	}
	if off < 0 || length < 0 || off+length > int64(len(data)) {
		return nil, fmt.Errorf("simdisk: range [%d,%d) outside %v object %q of %d bytes",
			off, off+length, cat, name, len(data))
	}
	d.counters.Reads[cat]++
	d.counters.BytesRead[cat] += length
	out := append([]byte(nil), data[off:off+length]...)
	if d.readTransform != nil {
		out = d.readTransform(cat, name, out)
	}
	return out, nil
}

// Exists reports whether the object is present. It counts as one disk
// access: it models the on-disk lookup the bloom filter exists to avoid.
func (d *Disk) Exists(cat Category, name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(OpExists, cat, name); err != nil {
		return false
	}
	d.counters.ExistsQueries[cat]++
	_, ok := d.objects[cat][name]
	if !ok {
		d.counters.MissedLookups[cat]++
	}
	return ok
}

// Size returns the stored size of an object without counting an access
// (metadata the in-RAM structures already know).
func (d *Disk) Size(cat Category, name string) (int64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	data, ok := d.objects[cat][name]
	return int64(len(data)), ok
}

// Names returns the names of all stored objects in cat, in unspecified
// order, without counting a disk access. It exists for inspection by tests
// and experiment tooling, not for the deduplication data path.
func (d *Disk) Names(cat Category) []string {
	if cat < 0 || cat >= numCategories {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.objects[cat]))
	for name := range d.objects[cat] {
		out = append(out, name)
	}
	return out
}

// mutateRaw rewrites a stored object's bytes in place without charging any
// disk access or byte counter. It is the primitive behind FaultDisk's
// latent-corruption helpers (bit flips, truncation): the mutation models
// damage that happens *to* the medium, not an operation performed by the
// store.
func (d *Disk) mutateRaw(cat Category, name string, fn func(data []byte) ([]byte, error)) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cat < 0 || cat >= numCategories {
		return fmt.Errorf("simdisk: invalid category %d", int(cat))
	}
	data, exists := d.objects[cat][name]
	if !exists {
		return fmt.Errorf("simdisk: %v object %q does not exist", cat, name)
	}
	out, err := fn(data)
	if err != nil {
		return err
	}
	d.objects[cat][name] = out
	return nil
}

// Counters returns a snapshot of the access counters.
func (d *Disk) Counters() Counters {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.counters
}

// ObjectCount returns the number of stored objects in cat — the inode count
// for that category.
func (d *Disk) ObjectCount(cat Category) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.objects[cat]))
}

// TotalObjects returns the total number of stored objects (total inodes).
func (d *Disk) TotalObjects() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var t int64
	for i := range d.objects {
		t += int64(len(d.objects[i]))
	}
	return t
}

// BytesStored returns the byte size of all objects in cat.
func (d *Disk) BytesStored(cat Category) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var t int64
	for _, data := range d.objects[cat] {
		t += int64(len(data))
	}
	return t
}

// InodeOverheadBytes returns the storage-management metadata cost: 256
// bytes per stored object.
func (d *Disk) InodeOverheadBytes() int64 {
	return d.TotalObjects() * InodeBytes
}

// MetadataBytes returns the full metadata footprint as the paper defines it
// for the MetaDataRatio: everything except the deduplicated data payload —
// hooks, manifests, file manifests, plus inode overhead for all objects
// (data objects included, since each DiskChunk costs an inode too).
func (d *Disk) MetadataBytes() int64 {
	return d.BytesStored(Hook) + d.BytesStored(Manifest) + d.BytesStored(FileManifest) +
		d.BytesStored(Recipe) + d.InodeOverheadBytes()
}
