package store

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mhdedup/internal/events"
	"mhdedup/internal/metrics"
	"mhdedup/internal/simdisk"
)

// Durable orchestrates a store directory's continuous-durability machinery:
// it opens the directory crash-safely (Recover + LoadDir + log replay),
// attaches a write-ahead log to the mounted disk so every mutation is
// journaled, group-commits the log on demand (Commit — the server's
// acknowledgement barrier) and on a background cadence, folds the log into
// a fresh generation when it grows past a budget or an interval (Compact —
// SaveDir under the hood), runs an optional online scrub over a consistent
// snapshot, and answers the admission-control question (Overloaded) the
// server sheds load by. Background maintenance paces itself by the ingest
// latency histogram: when the interval p99 exceeds the budget, compaction
// and scrub back off rather than compete with foreground traffic — unless
// the log has grown so far past its budget that folding it is more urgent
// than latency.
type Durable struct {
	dir  string
	disk *simdisk.Disk
	wal  *simdisk.WAL
	opts DurableOptions
	ev   *events.Log

	// compactMu serializes Compact and Scrub: both walk the directory a
	// SaveDir rewrites, so they must not interleave with one another.
	compactMu sync.Mutex

	compactions   atomic.Int64
	backoffs      atomic.Int64
	scrubs        atomic.Int64
	scrubErrors   atomic.Int64
	lastCompactNS atomic.Int64
	lastScrubNS   atomic.Int64

	// prevBuckets is the pacing histogram's last sampled bucket counts;
	// touched only by the maintenance goroutine.
	prevBuckets []int64

	hCompact *metrics.Histogram
	hCommit  *metrics.Histogram

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// DurableOptions tunes a Durable. The zero value gets sane server
// defaults; negative values disable the corresponding mechanism.
type DurableOptions struct {
	// FlushInterval is the background group-commit cadence (and the
	// maintenance goroutine's tick): buffered log records older than this
	// are fsynced even if no Commit asked. Default 200ms; < 0 disables
	// the background goroutine entirely (manual Commit/Compact only).
	FlushInterval time.Duration

	// CompactLogBytes folds the log into a fresh generation once its
	// durable footprint exceeds this. Default 64 MiB; < 0 disables
	// size-triggered compaction.
	CompactLogBytes int64

	// CompactInterval folds a non-empty log by age even when small, so a
	// quiet server still converges to a bare generation. Default 30s;
	// < 0 disables time-triggered compaction.
	CompactInterval time.Duration

	// ShedPendingBytes and ShedLogBytes are the admission-control
	// budgets: Overloaded reports true when un-fsynced records exceed
	// ShedPendingBytes (the group commit is not keeping up) or the
	// durable log exceeds ShedLogBytes (compaction is not keeping up).
	// Defaults 32 MiB and 8×CompactLogBytes; < 0 disables that check.
	ShedPendingBytes int64
	ShedLogBytes     int64

	// ScrubInterval runs an online scrub (a verified restore of every file
	// from a consistent snapshot: each byte is re-hashed against the
	// manifest entry that vouches for it) this often. Default 0 = no
	// scrubbing.
	ScrubInterval time.Duration

	// PaceHistogram + P99Budget pace background maintenance: each tick
	// samples the histogram's new observations since the last tick, and
	// while their p99 exceeds the budget, compaction and scrub back off
	// (unless the log breached ShedLogBytes — then folding is urgent).
	// Nil histogram or zero budget disables pacing.
	PaceHistogram *metrics.Histogram
	P99Budget     time.Duration

	// Registry receives the durability gauges and histograms (default
	// metrics.Default); Events receives the compaction/scrub/backoff
	// event stream (default none).
	Registry *metrics.Registry
	Events   *events.Log
}

// fillDefaults resolves the zero value to server defaults.
func (o *DurableOptions) fillDefaults() {
	if o.FlushInterval == 0 {
		o.FlushInterval = 200 * time.Millisecond
	}
	if o.CompactLogBytes == 0 {
		o.CompactLogBytes = 64 << 20
	}
	if o.CompactInterval == 0 {
		o.CompactInterval = 30 * time.Second
	}
	if o.ShedPendingBytes == 0 {
		o.ShedPendingBytes = 32 << 20
	}
	if o.ShedLogBytes == 0 {
		if o.CompactLogBytes > 0 {
			o.ShedLogBytes = 8 * o.CompactLogBytes
		} else {
			o.ShedLogBytes = 512 << 20
		}
	}
	if o.Registry == nil {
		o.Registry = metrics.Default
	}
	if o.Events == nil {
		o.Events = events.Nop()
	}
}

// OpenDurable mounts dir as a continuously-durable store (simdisk.Mount):
// crash debris is repaired, including the log's torn tail, the newest
// committed generation is loaded, the write-ahead log's valid prefix is
// replayed on top of it, and a fresh log segment is attached to the disk
// so every mutation from here on is journaled. The returned replay report
// says how much log survived the last run. Call Start to launch background
// flushing/compaction, Commit to make acknowledged work durable, and Close
// on the way out.
func OpenDurable(dir string, opts DurableOptions) (*Durable, simdisk.WALReplayReport, error) {
	opts.fillDefaults()
	disk, wal, rep, err := simdisk.Mount(dir)
	if err != nil {
		return nil, rep, fmt.Errorf("store: durable open: %w", err)
	}

	d := &Durable{
		dir:  dir,
		disk: disk,
		wal:  wal,
		opts: opts,
		ev:   opts.Events,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	d.lastCompactNS.Store(time.Now().UnixNano())
	d.lastScrubNS.Store(time.Now().UnixNano())

	reg := opts.Registry
	d.hCompact = reg.Histogram("store.compaction_ns")
	d.hCommit = reg.Histogram("store.commit_ns")
	hBatch := reg.Histogram("store.group_commit_batch")
	wal.SetBatchObserver(func(records int) { hBatch.Observe(int64(records)) })
	reg.SetGauge("store.log_bytes", func() int64 { return d.wal.Stats().DurableBytes })
	reg.SetGauge("store.log_records", func() int64 { return d.wal.Stats().DurableRecords })
	reg.SetGauge("store.log_pending_bytes", func() int64 { return d.wal.Stats().PendingBytes })
	reg.SetGauge("store.log_streamed_bytes", func() int64 { return d.wal.Stats().StreamedBytes })
	reg.SetGauge("store.last_fsync_ns", func() int64 { return d.wal.Stats().LastSyncUnixNano })
	reg.SetGauge("store.compactions", d.compactions.Load)
	reg.SetGauge("store.compaction_backoffs", d.backoffs.Load)
	return d, rep, nil
}

// Disk returns the mounted disk (build the engine over this).
func (d *Durable) Disk() *simdisk.Disk { return d.disk }

// WAL returns the attached write-ahead log.
func (d *Durable) WAL() *simdisk.WAL { return d.wal }

// Commit group-commits the log: it returns once every mutation made
// before the call is durable. This is the server's acknowledgement
// barrier; N concurrent callers share one fsync. What the call waits for
// is in store.commit_ns: with store.log_streamed_bytes close to
// store.log_bytes that is the fsync alone, the log having been written
// back while the files were still being cut.
func (d *Durable) Commit() error {
	defer d.hCommit.ObserveSince(time.Now())
	return d.wal.Sync()
}

// Overloaded implements admission control: it reports (with a reason)
// when the durability machinery has fallen behind its budgets and new
// work should be shed with a retryable error instead of queued in RAM.
func (d *Durable) Overloaded() (string, bool) {
	st := d.wal.Stats()
	if d.opts.ShedPendingBytes > 0 && st.PendingBytes > d.opts.ShedPendingBytes {
		return fmt.Sprintf("log flush behind: %d pending bytes > %d budget",
			st.PendingBytes, d.opts.ShedPendingBytes), true
	}
	if d.opts.ShedLogBytes > 0 && st.DurableBytes > d.opts.ShedLogBytes {
		return fmt.Sprintf("compaction behind: %d log bytes > %d budget",
			st.DurableBytes, d.opts.ShedLogBytes), true
	}
	return "", false
}

// Compact folds the log into a fresh generation via the write-temp+fsync+
// rename commit path and restarts the log empty. Safe to call any time;
// concurrent mutations simply land in the new log.
func (d *Durable) Compact() error {
	d.compactMu.Lock()
	defer d.compactMu.Unlock()
	st := d.wal.Stats()
	d.ev.Info("compaction.start",
		events.F("log_bytes", st.DurableBytes),
		events.F("log_records", st.DurableRecords),
		events.F("pending_records", st.PendingRecords))
	start := time.Now()
	if err := d.disk.SaveDir(d.dir); err != nil {
		d.ev.Error("compaction.error", events.F("err", err.Error()))
		return err
	}
	elapsed := d.hCompact.ObserveSince(start)
	d.compactions.Add(1)
	d.lastCompactNS.Store(time.Now().UnixNano())
	d.ev.Info("compaction.done",
		events.F("ms", elapsed.Milliseconds()),
		events.F("folded_records", st.DurableRecords+st.PendingRecords))
	return nil
}

// Scrub verifies the store online: it mounts a consistent read-only
// snapshot (newest generation + the log's valid prefix) and restores
// every file to a discard writer through the verified path, so an
// undecodable manifest, a missing chunk or a flipped bit in a persisted
// container surfaces as an event — without ever touching the live engine's
// disk or blocking ingest, and inline (Workers: 1), so it never takes a
// second core from ingest. Any log prefix verifies: a file's records are
// logged DiskChunk → Manifest → Hooks → FileManifest, so a recipe in the
// prefix has every container and manifest it points into ahead of it, and
// an HHR write-back only replaces a manifest entry by entries over the same
// bytes, so either version of a manifest vouches for them.
func (d *Durable) Scrub() error {
	d.compactMu.Lock()
	defer d.compactMu.Unlock()
	start := time.Now()
	d.ev.Info("scrub.start")
	snap, _, err := simdisk.Load(d.dir, false)
	if err != nil {
		d.scrubErrors.Add(1)
		d.ev.Error("scrub.error", events.F("err", err.Error()))
		return err
	}
	format, _ := DetectFormat(snap)
	ver := NewVerifier(New(snap, format), VerifyOpts{})
	names := snap.Names(simdisk.FileManifest)
	sort.Strings(names)
	bad := 0
	for _, name := range names {
		if _, err := ver.RestoreRange(name, 0, -1, io.Discard, RestoreOptions{Workers: 1}); err != nil {
			bad++
			d.ev.Error("scrub.corrupt",
				events.F("file", name), events.F("err", err.Error()))
		}
	}
	d.scrubs.Add(1)
	d.lastScrubNS.Store(time.Now().UnixNano())
	d.ev.Info("scrub.done",
		events.F("files", len(names)),
		events.F("corrupt", bad),
		events.F("ms", time.Since(start).Milliseconds()))
	if bad > 0 {
		d.scrubErrors.Add(int64(bad))
		return fmt.Errorf("store: scrub: %d of %d files failed to restore", bad, len(names))
	}
	return nil
}

// Start launches the background maintenance goroutine: periodic group
// commit of aging records, size/age-triggered compaction, and interval
// scrubbing — all paced by the ingest-latency budget. No-op when
// FlushInterval < 0 or after a prior Start.
func (d *Durable) Start() {
	d.startOnce.Do(func() {
		if d.opts.FlushInterval < 0 {
			close(d.done)
			return
		}
		go d.maintain()
	})
}

// maintain is the background loop.
func (d *Durable) maintain() {
	defer close(d.done)
	tick := time.NewTicker(d.opts.FlushInterval)
	defer tick.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-tick.C:
			d.maintainTick()
		}
	}
}

// maintainTick does one round of background work.
func (d *Durable) maintainTick() {
	st := d.wal.Stats()
	if st.PendingRecords > 0 {
		if err := d.wal.Sync(); err != nil {
			d.ev.Error("wal.flush_error", events.F("err", err.Error()))
		}
		st = d.wal.Stats()
	}

	// Sample the pacing signal every tick (even when nothing is due) so
	// the interval delta stays one tick wide.
	busy := false
	var p99 int64
	if d.opts.PaceHistogram != nil && d.opts.P99Budget > 0 {
		cur := d.opts.PaceHistogram.BucketCounts()
		var n int64
		p99, n = metrics.DeltaP99(cur, d.prevBuckets)
		d.prevBuckets = cur
		busy = n > 0 && p99 > int64(d.opts.P99Budget)
	}

	now := time.Now()
	needCompact := false
	if d.opts.CompactLogBytes > 0 && st.DurableBytes >= d.opts.CompactLogBytes {
		needCompact = true
	}
	if d.opts.CompactInterval > 0 && st.DurableRecords > 0 &&
		now.Sub(time.Unix(0, d.lastCompactNS.Load())) >= d.opts.CompactInterval {
		needCompact = true
	}
	// Urgency overrides pacing: past the shed budget, folding the log is
	// what restores admission, so latency takes the back seat.
	urgent := d.opts.ShedLogBytes > 0 && st.DurableBytes >= d.opts.ShedLogBytes

	if needCompact {
		if busy && !urgent {
			d.backoffs.Add(1)
			d.ev.Warn("compaction.backoff",
				events.F("p99_ms", time.Duration(p99).Milliseconds()),
				events.F("budget_ms", d.opts.P99Budget.Milliseconds()),
				events.F("log_bytes", st.DurableBytes))
		} else if err := d.Compact(); err != nil {
			d.ev.Error("compaction.error", events.F("err", err.Error()))
		}
	}

	if d.opts.ScrubInterval > 0 &&
		now.Sub(time.Unix(0, d.lastScrubNS.Load())) >= d.opts.ScrubInterval {
		if busy {
			d.ev.Warn("scrub.backoff",
				events.F("p99_ms", time.Duration(p99).Milliseconds()),
				events.F("budget_ms", d.opts.P99Budget.Milliseconds()))
		} else if err := d.Scrub(); err != nil {
			// Already evented; scrub failure must not stop maintenance.
			_ = err
		}
	}
}

// Close stops maintenance, flushes the log one last time and closes it.
// It does NOT fold the log — the on-disk state (generation + log) is
// complete without it; call Compact first for a bare-generation shutdown.
func (d *Durable) Close() error {
	var err error
	d.stopOnce.Do(func() {
		close(d.stop)
		d.Start() // ensure done is closed even if Start was never called
		<-d.done
		err = d.wal.Close()
	})
	return err
}
