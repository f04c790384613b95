package simdisk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Write-ahead delta log (DESIGN §13 argues what is only stated here).
// SaveDir persists a full generation — wrong-shaped for a server under
// continuous traffic, where every ingest would otherwise stay in RAM until
// a drain-time save. The WAL turns the store append-mostly: every
// successful mutation of a Disk with an attached WAL is queued as a record;
// once walStreamBytes are queued a background write encodes, CRCs and
// write(2)s them, and Sync writes what is left and fsyncs — one fsync
// shared by every concurrent waiter, the server's acknowledgement barrier.
//
//	dir/wal/seg-00000003.wal   segments, replayed in numeric order
//	dir/wal/seg-00000004.wal   the active segment (appended + fsynced)
//
// Each segment starts with an 8-byte magic and holds records framed as
//
//	u32 bodyLen | u32 crc32(body) | body
//	body := u8 op | u8 category | u32 nameLen | name | [u64 off] | data
//
// (off only in Extent and Seal records). A container reaches the log while
// its file is still being cut: the engine stages each flushed run of chunks
// as an Extent — bytes at an offset of an object that does not exist yet —
// and the Create that finally stores the object is journaled as a Seal
// (name, total length) instead of the payload again. Replay keeps extents
// in a map of its own and mounts the object only at its seal, so an object,
// like a record, is wholly visible or not at all: extents with no seal at
// the end of the valid prefix are dropped; an extent lands only at offset 0
// (which starts its object over) or exactly at the end of what is staged;
// a misplaced extent or a seal whose length is not what its extents staged
// is a replay error, never a silent drop (no torn tail produces one).
//
// The mounted state is fold(newest committed generation, every valid log
// record in segment order); a torn tail ends the valid prefix, later
// segments included. Re-applying records a generation already folded is
// idempotent (Set and Seal rewrite the same value, Delete deletes the
// deleted, a re-logged extent run restarts at 0), which makes every crash
// window of compaction safe. Compaction IS SaveDir: the generation commit
// snapshots the state under the disk lock, then (*WAL).compacted drops the
// folded records, starts a fresh segment and re-logs the extents of objects
// staged but not yet sealed — no generation holds those, and the WAL keeps
// their references until the seal — so a compaction between a session's
// first extent and its seal cannot lose the file. Early write-back does not
// weaken the barrier: a record written ahead of its Sync is what a torn
// batch could always leave behind, and an ack still waits for an fsync
// issued after the last of its records was written.

const (
	// walDirName is the log's subdirectory inside a store directory.
	walDirName = "wal"
	// walSegPrefix / walSegSuffix frame segment file names.
	walSegPrefix = "seg-"
	walSegSuffix = ".wal"
	// walMagic opens every segment file.
	walMagic = "MHDWAL01"
	// walFrameSize is the per-record frame overhead (length + CRC).
	walFrameSize = 8
	// walBodyFixed is the fixed part of a record body (op, cat, nameLen).
	walBodyFixed = 6
	// walMaxRecord bounds a single record body: anything larger in a
	// segment is corruption, not data (objects are chunk-container sized).
	walMaxRecord = 1 << 30
	// walStreamBytes is how much Append queues before a background write
	// takes it: enough to be worth a write(2), little enough that a container
	// is on its way to the platter long before its file ends (the engine
	// flushes ≈ 200 KiB at a time).
	walStreamBytes = 128 << 10
	// walKeepEncode caps the encode buffer kept between batches.
	walKeepEncode = 4 << 20
)

// WAL record operations.
const (
	// WALSet records a Create or Write: the object's complete new payload.
	WALSet byte = 1
	// WALDelete records a Delete.
	WALDelete byte = 2
	// WALExtent stages bytes at offset Off of an object not yet created.
	WALExtent byte = 3
	// WALSeal makes the Off bytes staged under Name the object's payload.
	WALSeal byte = 4
)

// WALRecord is one logged object mutation. Append keeps Data and Parts by
// reference until the record is written: they must not change after it.
type WALRecord struct {
	Op   byte
	Cat  Category
	Name string
	Off  int64 // an extent's offset in its object; a seal's total length
	Data []byte
	// Parts continues Data: an extent is handed over as the slices it was
	// cut into and joined only in the log's encode buffer.
	Parts [][]byte
}

// payloadLen is the length of the record's payload, Data then Parts.
func (r *WALRecord) payloadLen() int64 {
	n := int64(len(r.Data))
	for _, p := range r.Parts {
		n += int64(len(p))
	}
	return n
}

// walKey names an object in the staging maps of the log and of its replay.
type walKey struct {
	cat  Category
	name string
}

// stagedLen is how many bytes a run of extents has staged.
func stagedLen(ext []WALRecord) int64 {
	if len(ext) == 0 {
		return 0
	}
	last := &ext[len(ext)-1]
	return last.Off + last.payloadLen()
}

// stageExtent is the placement rule the live log and its replay share: an
// extent at offset 0 starts its object over (a name reused after a crash, a
// run re-logged by compaction), one at the end of what is staged extends
// it, and any other offset is refused.
func stageExtent(staged map[walKey][]WALRecord, r WALRecord) bool {
	key := walKey{r.Cat, r.Name}
	switch r.Off {
	case 0:
		staged[key] = []WALRecord{r}
	case stagedLen(staged[key]):
		staged[key] = append(staged[key], r)
	default:
		return false
	}
	return true
}

// WALStats is a point-in-time snapshot of a WAL's accounting.
type WALStats struct {
	// Segment is the active segment number.
	Segment int
	// DurableBytes / DurableRecords cover everything fsynced across the
	// live segments since the last compaction (the log footprint a
	// compaction would fold).
	DurableBytes   int64
	DurableRecords int64
	// PendingBytes / PendingRecords cover appended-but-unsynced records,
	// queued in RAM or already written back (either way lost by a crash,
	// which is why acks wait on Sync).
	PendingBytes   int64
	PendingRecords int64
	// StreamedBytes counts the bytes background writes put in the segment
	// ahead of their Sync, since open: next to DurableBytes it says how much
	// of a commit's wait was fsync and how much was still write.
	StreamedBytes int64
	// Syncs counts fsync batches; LastSyncUnixNano stamps the newest.
	Syncs            int64
	LastSyncUnixNano int64
	// Compactions counts generation commits that folded this WAL.
	Compactions int64
}

// WAL is the write-ahead delta log of one store directory. Safe for
// concurrent use: Append runs under the owning Disk's lock, Sync is called
// by any number of goroutines and group-commits, and at most one goroutine
// at a time — a background write, a Sync leader or a compaction — owns the
// segment file (busy).
type WAL struct {
	storeDir string // the store directory (wal lives in storeDir/wal)
	dir      string // storeDir/wal

	mu       sync.Mutex
	idle     *sync.Cond // signalled when busy clears
	busy     bool
	f        *os.File
	seg      int
	fileOff  int64       // bytes in the active segment, magic included
	queue    []WALRecord // appended, not yet encoded or written
	queued   int64       // their encoded size
	enc      []byte      // encode buffer, recycled by whoever is busy
	streamAt int64       // queued bytes that start a background write
	// staged holds the extents of objects not yet sealed: what a Set must
	// match to be logged as a seal, and what a compaction must re-log.
	staged         map[walKey][]WALRecord
	appended       uint64 // records appended (monotone)
	synced         uint64 // records durable
	writtenBytes   int64  // written since the last fsync
	writtenRecords int64
	streamedBytes  int64
	err            error // sticky write/fsync failure; healed by compaction
	hook           SaveHook
	onBatch        func(records int)
	durBytes       int64
	durRecords     int64
	syncs          int64
	compactions    int64
	lastSyncNS     int64
	closed         bool
}

// walSegName renders a segment file name.
func walSegName(n int) string {
	return fmt.Sprintf("%s%08d%s", walSegPrefix, n, walSegSuffix)
}

// walSegments lists the segment files under dir/wal in replay order, and
// the highest segment number among them. Only names walSegName renders
// count, so name order (ReadDir's) is number order.
func walSegments(storeDir string) (names []string, last int, err error) {
	entries, err := os.ReadDir(filepath.Join(storeDir, walDirName))
	if err != nil && !os.IsNotExist(err) {
		return nil, 0, err
	}
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), walSegPrefix+"%d"+walSegSuffix, &n); err == nil &&
			n > 0 && e.Name() == walSegName(n) && !e.IsDir() {
			names, last = append(names, e.Name()), n
		}
	}
	return names, last, nil
}

// OpenWAL opens (creating if needed) the write-ahead log of a store
// directory and starts a fresh active segment. Any torn tail left by a
// crash is trimmed first (see walPass), so new records are never appended
// after bytes a replay would discard. Existing segments are kept and stay
// part of the replay prefix until the next compaction folds them.
func OpenWAL(storeDir string) (*WAL, error) {
	w, _, err := openWAL(storeDir, nil)
	return w, err
}

// openWAL is OpenWAL over the one pass a mount makes through the log: the
// pass that trims the tail also replays the valid prefix onto d (when not
// nil) and measures what the new WAL starts on top of.
func openWAL(storeDir string, d *Disk) (*WAL, WALReplayReport, error) {
	if err := os.MkdirAll(filepath.Join(storeDir, walDirName), 0o755); err != nil {
		return nil, WALReplayReport{}, fmt.Errorf("simdisk: wal: %w", err)
	}
	rep, lastSeg, err := walPass(storeDir, d, true)
	if err != nil {
		return nil, rep, fmt.Errorf("simdisk: wal: recover: %w", err)
	}
	w := &WAL{
		storeDir:   storeDir,
		dir:        filepath.Join(storeDir, walDirName),
		seg:        lastSeg + 1,
		streamAt:   walStreamBytes,
		staged:     make(map[walKey][]WALRecord),
		durBytes:   rep.Bytes,
		durRecords: rep.Records,
	}
	w.idle = sync.NewCond(&w.mu)
	if err := w.openSegmentLocked(); err != nil {
		return nil, rep, err
	}
	return w, rep, nil
}

// openSegmentLocked creates the active segment file with its magic header
// and fsyncs it (and the wal directory) into existence. Caller holds w.mu
// or has exclusive access.
func (w *WAL) openSegmentLocked() error {
	path := filepath.Join(w.dir, walSegName(w.seg))
	if err := hookPoint(w.hook, "create:"+path); err != nil {
		return err
	}
	err := writeFileSync(path, []byte(walMagic))
	if err == nil {
		err = syncDir(w.dir)
	}
	var f *os.File
	if err == nil {
		f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	}
	if err != nil {
		return fmt.Errorf("simdisk: wal: %w", err)
	}
	w.f, w.fileOff = f, int64(len(walMagic))
	w.durBytes += int64(len(walMagic))
	return nil
}

// SetHook installs fn as the log's persistence fault injector (consulted
// before every segment create/append/fsync/remove, on whichever goroutine
// makes it); nil clears it.
func (w *WAL) SetHook(fn SaveHook) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.hook = fn
}

// SetBatchObserver installs fn to observe each group-commit batch (the
// number of records one fsync made durable). Used to feed the
// group-commit-batch-size histogram; nil clears it.
func (w *WAL) SetBatchObserver(fn func(records int)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.onBatch = fn
}

// sameStore reports whether dir names the WAL's own store directory (the
// only directory a generation commit into which folds this log).
func (w *WAL) sameStore(dir string) bool {
	a, err1 := filepath.Abs(w.storeDir)
	b, err2 := filepath.Abs(dir)
	return (err1 == nil && err2 == nil && a == b) || filepath.Clean(w.storeDir) == filepath.Clean(dir)
}

// Stats returns a snapshot of the log's accounting.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{
		Segment:          w.seg,
		DurableBytes:     w.durBytes,
		DurableRecords:   w.durRecords,
		PendingBytes:     w.queued + w.writtenBytes,
		PendingRecords:   int64(len(w.queue)) + w.writtenRecords,
		StreamedBytes:    w.streamedBytes,
		Syncs:            w.syncs,
		LastSyncUnixNano: w.lastSyncNS,
		Compactions:      w.compactions,
	}
}

// appendWALRecord encodes one record frame onto buf.
func appendWALRecord(buf []byte, r WALRecord) []byte {
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // length and CRC patched below
	bodyAt := len(buf)
	buf = append(buf, r.Op, byte(r.Cat))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Name)))
	buf = append(buf, r.Name...)
	if r.Op >= WALExtent {
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.Off))
	}
	buf = append(buf, r.Data...)
	for _, p := range r.Parts {
		buf = append(buf, p...)
	}
	binary.BigEndian.PutUint32(buf[bodyAt-8:], uint32(len(buf)-bodyAt))
	binary.BigEndian.PutUint32(buf[bodyAt-4:], crc32.ChecksumIEEE(buf[bodyAt:]))
	return buf
}

// enqueueLocked queues one record behind everything appended so far.
func (w *WAL) enqueueLocked(r WALRecord) {
	w.queue = append(w.queue, r)
	w.queued += walFrameSize + walBodyFixed + int64(len(r.Name)) + r.payloadLen()
	if r.Op >= WALExtent {
		w.queued += 8
	}
	w.appended++
}

// Append queues one record. Called by the owning Disk under its lock,
// which is what serializes record order with mutation order. Append never
// touches the file system itself: past walStreamBytes it starts a
// background write of the queue, and durability is Sync's job. A Set whose
// every byte is already staged as extents is journaled as their seal. On a
// broken log the record is dropped — its state is safe in RAM and folded by
// the next generation commit; until then Sync fails, so nothing is acked.
func (w *WAL) Append(r WALRecord) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch key := (walKey{r.Cat, r.Name}); r.Op {
	case WALExtent:
		if !stageExtent(w.staged, r) {
			delete(w.staged, key) // the Set that follows carries the payload
			return
		}
	case WALSet:
		if ext, ok := w.staged[key]; ok {
			delete(w.staged, key)
			if n := int64(len(r.Data)); n == stagedLen(ext) {
				r = WALRecord{Op: WALSeal, Cat: r.Cat, Name: r.Name, Off: n}
			}
		}
	}
	if w.err != nil || w.closed {
		return
	}
	w.enqueueLocked(r)
	if w.queued >= w.streamAt && !w.busy {
		w.busy = true
		go w.writeBack()
	}
}

// unstage forgets the extents of an object that will never be sealed (its
// file failed); the ones already logged are dropped by replay.
func (w *WAL) unstage(cat Category, name string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.staged, walKey{cat, name})
}

// writeBack is the background write Append starts (busy already set): it
// moves the queue into the segment until less than a batch is left.
func (w *WAL) writeBack() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.err == nil && w.queued >= w.streamAt {
		w.flushLocked(false)
	}
	w.busy = false
	w.idle.Broadcast()
}

// Sync makes every record appended before the call durable and returns
// once it is: it writes what no background write has taken yet, then
// fsyncs. Concurrent callers group-commit — whoever finds the segment idle
// flushes for all, the others wait on that flush (or lead the next, if
// their records arrived mid-flush). This is the server's acknowledgement
// barrier and the reason N sessions share one fsync.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for target := w.appended; w.err == nil && w.synced < target; {
		if w.busy {
			w.idle.Wait()
			continue
		}
		w.busy = true
		w.flushLocked(true)
		w.busy = false
		w.idle.Broadcast()
	}
	return w.err
}

// flushLocked is the log's one write path, run by whoever set busy, with
// w.mu held on entry and exit and released in between: it takes the whole
// queue, encodes and CRCs it into the recycled buffer, writes it, and then
// either fsyncs (sync: everything written so far becomes durable) or asks
// the kernel to start writing the new pages back. A failure is sticky.
func (w *WAL) flushLocked(sync bool) {
	batch, upTo := w.queue, w.appended
	buf, f, hook, off := w.enc[:0], w.f, w.hook, w.fileOff
	path := filepath.Join(w.dir, walSegName(w.seg))
	w.queue, w.queued = nil, 0
	w.mu.Unlock()

	for _, r := range batch {
		buf = appendWALRecord(buf, r)
	}
	var err error
	if len(buf) > 0 {
		// The hook may tear the batch: the torn tail a replay discards.
		err = hookWrite(hook, "append:"+path, buf, func(b []byte) error {
			_, err := f.Write(b)
			return err
		})
	}
	if err == nil && sync {
		if err = hookPoint(hook, "fsync:"+path); err == nil {
			if err = f.Sync(); err != nil {
				err = fmt.Errorf("simdisk: wal fsync: %w", err)
			}
		}
	} else if err == nil {
		startWriteBack(f, off, int64(len(buf)))
	}

	w.mu.Lock()
	if cap(buf) <= walKeepEncode {
		w.enc = buf
	}
	if err != nil {
		w.err = err
		return
	}
	w.fileOff += int64(len(buf))
	w.writtenBytes += int64(len(buf))
	w.writtenRecords += int64(len(batch))
	if !sync {
		w.streamedBytes += int64(len(buf))
		return
	}
	n := w.writtenRecords
	w.synced = upTo
	w.durBytes += w.writtenBytes
	w.durRecords += n
	w.writtenBytes, w.writtenRecords = 0, 0
	w.syncs++
	w.lastSyncNS = time.Now().UnixNano()
	if w.onBatch != nil && n > 0 {
		w.onBatch(int(n))
	}
}

// compacted is called by SaveDir — with the owning Disk's lock held —
// after a generation commit into the WAL's store directory. Everything
// the log holds (durable segments and queued records alike) is folded
// into that generation, so the log restarts empty but for the extents of
// objects not yet sealed, which are queued again for the fresh segment:
// the active segment is closed, a fresh one is opened, every older segment
// file is removed. A crash anywhere in here is safe by the superset-replay
// property (left-over folded segments replay idempotently on top of the
// new generation). A sticky log failure is healed here: the generation
// commit re-captured the full state, so the log is consistent again.
func (w *WAL) compacted() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.busy {
		// Wait out an in-flight write or group commit; it holds no disk
		// lock, so this cannot deadlock.
		w.idle.Wait()
	}
	if w.closed {
		return nil
	}
	w.queue, w.queued = nil, 0
	w.writtenBytes, w.writtenRecords = 0, 0
	w.synced = w.appended
	w.err = nil
	for _, ext := range w.staged {
		for _, r := range ext {
			w.enqueueLocked(r)
		}
	}
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	oldNames, _, err := walSegments(w.storeDir)
	if err != nil {
		return fmt.Errorf("simdisk: wal: %w", err)
	}
	w.seg++
	w.durBytes, w.durRecords = 0, 0
	w.compactions++
	if err := w.openSegmentLocked(); err != nil {
		return err
	}
	for _, name := range oldNames {
		path := filepath.Join(w.dir, name)
		if err := hookPoint(w.hook, "remove:"+path); err != nil {
			return err
		}
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("simdisk: wal: %w", err)
		}
	}
	if err := syncDir(w.dir); err != nil {
		return fmt.Errorf("simdisk: wal: %w", err)
	}
	return nil
}

// Close flushes queued records and closes the active segment. The log
// files stay behind: they are part of the store until a generation commit
// folds them.
func (w *WAL) Close() error {
	err := w.Sync()
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.busy {
		w.idle.Wait()
	}
	if w.closed {
		return err
	}
	w.closed = true
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.f = nil
	}
	return err
}

// ---------------------------------------------------------------------------
// Replay and recovery.

// WALReplayReport describes what a pass over the log applied, discarded
// and (when it was allowed to) repaired.
type WALReplayReport struct {
	// Segments scanned; Records and Bytes in their valid prefix.
	Segments int
	Records  int64
	Bytes    int64
	// Unsealed counts objects whose extents reached the log but whose seal
	// did not: never mounted.
	Unsealed int
	// Truncated is true when a torn or corrupt tail ended the valid
	// prefix early; TruncatedSegment names where.
	Truncated        bool
	TruncatedSegment string
	// DiscardedSegments lists segments after the truncation point whose
	// records were ignored entirely (they are beyond the valid prefix).
	DiscardedSegments []string
	// Trimmed lists repairs made on disk: "truncate:<seg>" for a tail trim,
	// "remove:<seg>" for a discarded segment.
	Trimmed []string
}

// walScanSegment walks one segment's bytes and returns the records of its
// valid prefix (their Data aliasing data), how many bytes that prefix spans
// (including the magic), and whether the whole segment was valid.
func walScanSegment(data []byte) (recs []WALRecord, validBytes int, whole bool) {
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return nil, 0, false
	}
	off := len(walMagic)
	for off < len(data) {
		rest := data[off:]
		if len(rest) < walFrameSize {
			return recs, off, false
		}
		bodyLen := int(binary.BigEndian.Uint32(rest))
		if bodyLen < walBodyFixed || bodyLen > walMaxRecord || bodyLen > len(rest)-walFrameSize {
			return recs, off, false
		}
		want := binary.BigEndian.Uint32(rest[4:])
		body := rest[walFrameSize : walFrameSize+bodyLen]
		if crc32.ChecksumIEEE(body) != want {
			return recs, off, false
		}
		r := WALRecord{Op: body[0], Cat: Category(body[1])}
		nameLen := int(binary.BigEndian.Uint32(body[2:]))
		if r.Op < WALSet || r.Op > WALSeal || r.Cat < 0 || r.Cat >= numCategories ||
			nameLen < 0 || nameLen > bodyLen-walBodyFixed {
			return recs, off, false
		}
		r.Name = string(body[walBodyFixed : walBodyFixed+nameLen])
		r.Data = body[walBodyFixed+nameLen:]
		if r.Op >= WALExtent {
			if len(r.Data) < 8 {
				return recs, off, false
			}
			r.Off, r.Data = int64(binary.BigEndian.Uint64(r.Data)), r.Data[8:]
			if r.Off < 0 || (r.Op == WALSeal && len(r.Data) > 0) {
				return recs, off, false
			}
		}
		recs = append(recs, r)
		off += walFrameSize + bodyLen
	}
	return recs, off, true
}

// walFold folds scanned records into a mount: a Set or Delete applies at
// once, an extent waits in staged for its seal. With d nil it checks the
// records and mounts nothing.
type walFold struct {
	d      *Disk
	staged map[walKey][]WALRecord
}

// apply replays one record onto the disk's object maps without charging
// access counters or re-journaling — replay models mounting state that was
// already written, exactly like LoadDir.
func (p *walFold) apply(r WALRecord) error {
	key := walKey{r.Cat, r.Name}
	parts := [][]byte{r.Data} // a Set's payload aliases the segment: Join copies it
	switch r.Op {
	case WALExtent:
		if !stageExtent(p.staged, r) {
			return fmt.Errorf("extent of %v %q at %d, %d bytes staged", r.Cat, r.Name, r.Off, stagedLen(p.staged[key]))
		}
		return nil
	case WALSeal:
		ext, ok := p.staged[key]
		if !ok || stagedLen(ext) != r.Off {
			return fmt.Errorf("seal of %v %q at %d bytes, %d staged", r.Cat, r.Name, r.Off, stagedLen(ext))
		}
		delete(p.staged, key)
		parts = parts[:0]
		for i := range ext {
			parts = append(parts, ext[i].Data)
		}
	}
	if p.d == nil {
		return nil
	}
	p.d.mu.Lock()
	defer p.d.mu.Unlock()
	if r.Op == WALDelete {
		delete(p.d.objects[r.Cat], r.Name)
	} else {
		p.d.objects[r.Cat][r.Name] = bytes.Join(parts, nil)
	}
	return nil
}

// ReplayWAL applies the store directory's write-ahead log onto d, in
// segment order, stopping cleanly at the first invalid record (the torn
// tail of a crash): everything before it is applied, everything from it
// onward — including all later segments — is ignored. Read-only: the log
// files are not modified (Recover and OpenWAL trim the tail on disk).
// A missing or empty log replays as zero records.
func ReplayWAL(storeDir string, d *Disk) (WALReplayReport, error) {
	rep, _, err := walPass(storeDir, d, false)
	if err != nil {
		err = fmt.Errorf("simdisk: wal replay: %w", err)
	}
	return rep, err
}

// walPass is the one walk over a store directory's log that replay,
// recovery and the durable mount share: every segment is read and CRC'd
// once, its valid records folded onto d (nil: only checked), and — when
// repair is set — the crash debris trimmed on disk so the valid prefix is
// exactly what remains: a segment with a torn tail is truncated to it (or
// removed when even its magic is gone) and every later segment removed —
// appending must never resume after bytes a replay would discard. The
// repair is idempotent AND re-entrant: later segments go in reverse order
// and the boundary segment is repaired last, so a crash anywhere in here
// leaves the boundary in place to keep marking where the valid prefix ends
// (repairing it first would let the surviving later segments rejoin the log
// and resurrect discarded records). recoverPoint is consulted before each
// repair. lastSeg is the highest segment number the log has used.
func walPass(storeDir string, d *Disk, repair bool) (rep WALReplayReport, lastSeg int, err error) {
	names, lastSeg, err := walSegments(storeDir)
	if err != nil || len(names) == 0 {
		return rep, 0, err
	}
	dir := filepath.Join(storeDir, walDirName)

	// Pass 1, read-only: fold the valid prefix and find the boundary — the
	// first segment whose scan stops early.
	fold := walFold{d: d, staged: make(map[walKey][]WALRecord)}
	boundary, boundaryValid := -1, 0
	for i, name := range names {
		if boundary >= 0 {
			rep.DiscardedSegments = append(rep.DiscardedSegments, name)
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return rep, lastSeg, fmt.Errorf("%s: %w", name, err)
		}
		recs, validBytes, whole := walScanSegment(data)
		for _, r := range recs {
			if err := fold.apply(r); err != nil {
				return rep, lastSeg, fmt.Errorf("%s: %w", name, err)
			}
		}
		rep.Segments++
		rep.Records += int64(len(recs))
		rep.Bytes += int64(validBytes)
		if !whole {
			boundary, boundaryValid = i, validBytes
			rep.Truncated, rep.TruncatedSegment = true, name
		}
	}
	rep.Unsealed = len(fold.staged)
	if boundary < 0 || !repair {
		return rep, lastSeg, nil
	}

	// Pass 2: remove the segments beyond the boundary, newest first.
	remove := func(name string) error {
		if err := recoverPoint("wal-remove:" + name); err != nil {
			return err
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
		rep.Trimmed = append(rep.Trimmed, "remove:"+name)
		return nil
	}
	for i := len(names) - 1; i > boundary; i-- {
		if err := remove(names[i]); err != nil {
			return rep, lastSeg, err
		}
	}

	// Finally repair the boundary itself: truncate to its valid prefix, or
	// remove it when not even the magic survived.
	name := names[boundary]
	if boundaryValid == 0 {
		if err := remove(name); err != nil {
			return rep, lastSeg, err
		}
	} else {
		if err := recoverPoint("wal-truncate:" + name); err != nil {
			return rep, lastSeg, err
		}
		path := filepath.Join(dir, name)
		if err := os.Truncate(path, int64(boundaryValid)); err != nil {
			return rep, lastSeg, err
		}
		if f, err := os.Open(path); err == nil {
			f.Sync()
			f.Close()
		}
		rep.Trimmed = append(rep.Trimmed, "truncate:"+name)
	}
	if err := syncDir(dir); err != nil && !os.IsNotExist(err) {
		return rep, lastSeg, err
	}
	return rep, lastSeg, nil
}
