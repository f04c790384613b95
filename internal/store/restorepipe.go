package store

import (
	"fmt"
	"io"
	"sync"
	"time"

	"mhdedup/internal/events"
	"mhdedup/internal/metrics"
)

// The restore executor. planRestore (restoreplan.go) turns a FileManifest
// into a totally ordered schedule of coalesced container reads; runPlan
// executes it, and is the only thing that does: whole or ranged, plain or
// verified, every restore is this loop (DESIGN §11).
//
// The calling goroutine emits the planned reads in schedule order. Before
// it waits for read i it starts every later read that fits: at most
// RestoreOptions.Workers reads are started and not yet emitted, and their
// bytes stay within max(WindowBytes, largest planned read) — a read larger
// than the whole window starts only when nothing else is outstanding.
// Starting and emitting share one loop and one order, so the read awaited
// has always been started: that is the whole deadlock argument, and a
// stalled writer is backpressure by construction (nothing is emitted, so
// nothing new starts). Workers ≤ 1 fetches each read inline on the caller —
// no goroutine, no channel hop — which is every default restore.

// Executor instrumentation on the process-wide registry: plan size and
// coalesce ratio per restore, per-planned-read latency, and the bytes
// outstanding each time a read is started ahead.
var (
	hRestorePlanReads     = metrics.GetHistogram("store.restore_plan_reads")
	hRestoreCoalesceX1000 = metrics.GetHistogram("store.restore_coalesce_x1000")
	hRestoreReadNS        = metrics.GetHistogram("store.restore_read_ns")
	hRestoreWindowBytes   = metrics.GetHistogram("store.restore_window_bytes")
)

// RestoreStats describes one restore: how much the planner coalesced and
// how far the executor read ahead.
type RestoreStats struct {
	// Refs is the number of recipe entries; Reads the number of planned
	// container reads they coalesced into.
	Refs, Reads int
	// OutputBytes is the size of the reconstructed file; PlannedBytes the
	// container bytes fetched (gap bytes included, overlap fetched once).
	OutputBytes, PlannedBytes int64
	// CoalesceRatio is Refs/Reads (≥ 1; 0 for an empty file).
	CoalesceRatio float64
	// PeakWindowBytes is the largest total of started-but-unemitted read
	// bytes observed — always ≤ max(WindowBytes, largest single read).
	PeakWindowBytes int64
	// Workers is the most reads the executor keeps outstanding at once (1:
	// each read is fetched inline on the caller).
	Workers int
}

// plannedReadFn fetches one planned read's bytes: exactly pr.length bytes
// of pr.container starting at pr.start. The plain path issues one
// ReadDiskChunkRange; the verified path reads the manifest claims the
// read serves from, hashes them, and slices from the buffer that checked
// clean (Verifier.readPlannedVerified).
type plannedReadFn func(pr *plannedRead) ([]byte, error)

// SetEventLog attaches a structured event log to the store; restores
// report slow planned reads and per-file plan summaries to it. A nil log
// (the default) is silently discarded.
func (s *Store) SetEventLog(l *events.Log) { s.ev = l }

// RestoreFileStats is RestoreFile under opts, returning the plan and
// look-ahead statistics.
func (s *Store) RestoreFileStats(file string, w io.Writer, opts RestoreOptions) (RestoreStats, error) {
	rs, err := s.RestoreRange(file, 0, -1, w, opts)
	return rs.RestoreStats, err
}

// readPlanned is the plain (unverified) plannedReadFn: one coalesced
// container range read.
func (s *Store) readPlanned(pr *plannedRead) ([]byte, error) {
	data, err := s.ReadDiskChunkRange(pr.container, pr.start, pr.length)
	if err != nil {
		return nil, fmt.Errorf("ref %s[%d+%d]: %w", pr.container, pr.start, pr.length, err)
	}
	return data, nil
}

// runPlan executes a restore plan into w, fetching each planned read with
// read. It returns only once every read it started has finished, so a
// failed restore leaves no disk access behind it.
func (s *Store) runPlan(plan *restorePlan, read plannedReadFn, w io.Writer, opts RestoreOptions) (RestoreStats, error) {
	stats := RestoreStats{
		Refs:          plan.refs,
		Reads:         len(plan.reads),
		OutputBytes:   plan.outputBytes,
		PlannedBytes:  plan.plannedBytes,
		CoalesceRatio: plan.coalesceRatio(),
		Workers:       opts.workers(),
	}
	hRestorePlanReads.Observe(int64(len(plan.reads)))
	hRestoreCoalesceX1000.Observe(int64(stats.CoalesceRatio * 1000))
	begin := time.Now()

	type result struct {
		buf []byte
		err error
	}
	var (
		reads   = plan.reads
		width   = stats.Workers
		window  = opts.window()
		slots   []chan result // read i reports on slots[i%width]
		started int           // reads[:started] have been started
		used    int64         // bytes of started-and-unemitted reads
		wg      sync.WaitGroup
	)
	if width > 1 {
		// At most width consecutive reads are outstanding, so read i's slot
		// is free by the time read i starts; one buffered result each means
		// a reader never blocks, whether or not anyone is left to receive.
		slots = make([]chan result, width)
		for k := range slots {
			slots[k] = make(chan result, 1)
		}
		defer wg.Wait()
	}
	for i := range reads {
		var r result
		if width <= 1 {
			used = reads[i].length
			r.buf, r.err = s.timedRead(read, &reads[i])
		} else {
			for ; started < len(reads) && started-i < width &&
				(used == 0 || used+reads[started].length <= window); started++ {
				pr, slot := &reads[started], slots[started%width]
				used += pr.length
				hRestoreWindowBytes.Observe(used)
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf, err := s.timedRead(read, pr)
					slot <- result{buf, err}
				}()
			}
			r = <-slots[i%width]
		}
		if used > stats.PeakWindowBytes {
			stats.PeakWindowBytes = used
		}
		if r.err != nil {
			return stats, fmt.Errorf("store: restore %q: %w", plan.file, r.err)
		}
		if err := emitSegments(w, &reads[i], r.buf); err != nil {
			return stats, err
		}
		used -= reads[i].length
	}

	d := s.ev.SlowOp("restore.pipeline", time.Since(begin),
		events.F("file", plan.file), events.F("bytes", stats.OutputBytes),
		events.F("reads", stats.Reads), events.F("workers", stats.Workers))
	if !d {
		s.ev.Debug("restore.pipeline.done",
			events.F("file", plan.file), events.F("bytes", stats.OutputBytes),
			events.F("refs", stats.Refs), events.F("reads", stats.Reads))
	}
	return stats, nil
}

// timedRead wraps one planned read with the latency histogram and the
// slow-op event.
func (s *Store) timedRead(read plannedReadFn, pr *plannedRead) ([]byte, error) {
	start := time.Now()
	buf, err := read(pr)
	d := hRestoreReadNS.ObserveSince(start)
	s.ev.SlowOp("restore.read", d,
		events.F("container", pr.container.Short()), events.F("bytes", pr.length))
	return buf, err
}

// emitSegments writes one read's segments, in order, from its buffer.
func emitSegments(w io.Writer, pr *plannedRead, buf []byte) error {
	if int64(len(buf)) < pr.length {
		return fmt.Errorf("store: restore: container %s read [%d,+%d) returned %d bytes",
			pr.container.Short(), pr.start, pr.length, len(buf))
	}
	for _, seg := range pr.segs {
		if _, err := w.Write(buf[seg.off : seg.off+seg.size]); err != nil {
			return err
		}
	}
	return nil
}
