package store

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"mhdedup/internal/events"
	"mhdedup/internal/metrics"
)

// Batched, pipelined restore engine. planRestore (restoreplan.go) turns a
// FileManifest into a totally ordered schedule of coalesced container
// reads; this file executes the schedule: N reader goroutines fetch
// planned ranges out of order while a single in-order emitter reassembles
// the logical byte stream from a windowed reorder buffer, so the output
// written to w is bit-identical to the serial per-ref walk no matter how
// reads complete.
//
// Memory is bounded by RestoreOptions.WindowBytes: a dispatcher admits
// reads (in schedule order) into the window only while the bytes of all
// admitted-but-unemitted reads fit, and the emitter credits a read's bytes
// back the moment its last segment is written. A single read larger than
// the whole window is admitted only when the window is empty, so the true
// bound is max(WindowBytes, largest planned read). Because reads are
// emitted in exactly admission order, the emitter can only ever be waiting
// on a read that is already in flight — or admissible into an empty
// window — so the pipeline cannot deadlock, and a stalled writer simply
// holds the window full (backpressure) without growing it.

// Pipeline instrumentation on the process-wide registry: plan size and
// coalesce ratio per restore, per-planned-read latency, and window
// occupancy at each admission.
var (
	hRestorePlanReads     = metrics.GetHistogram("store.restore_plan_reads")
	hRestoreCoalesceX1000 = metrics.GetHistogram("store.restore_coalesce_x1000")
	hRestoreReadNS        = metrics.GetHistogram("store.restore_read_ns")
	hRestoreWindowBytes   = metrics.GetHistogram("store.restore_window_bytes")
)

// RestoreStats describes one pipelined restore: how much the planner
// coalesced and how full the reorder window got.
type RestoreStats struct {
	// Refs is the number of recipe entries; Reads the number of planned
	// container reads they coalesced into.
	Refs, Reads int
	// OutputBytes is the size of the reconstructed file; PlannedBytes the
	// container bytes fetched (gap bytes included, overlap fetched once).
	OutputBytes, PlannedBytes int64
	// CoalesceRatio is Refs/Reads (≥ 1; 0 for an empty file).
	CoalesceRatio float64
	// PeakWindowBytes is the largest total of admitted-but-unemitted read
	// bytes observed — always ≤ max(WindowBytes, largest single read).
	PeakWindowBytes int64
	// Workers is the number of reader goroutines actually used.
	Workers int
}

// plannedReadFn fetches one planned read's bytes: exactly pr.length bytes
// of pr.container starting at pr.start. The plain path issues one
// ReadDiskChunkRange; the verified path reads the manifest claims the
// read serves from, hashes them, and slices from the buffer that checked
// clean (Verifier.readPlannedVerified).
type plannedReadFn func(pr *plannedRead) ([]byte, error)

// errRestoreAborted marks reads skipped because the pipeline already
// failed; it never escapes to the caller (the first real error does).
var errRestoreAborted = errors.New("store: restore aborted")

// SetEventLog attaches a structured event log to the store; restore
// pipelines report slow planned reads and per-file plan summaries to it.
// A nil log (the default) is silently discarded.
func (s *Store) SetEventLog(l *events.Log) { s.ev = l }

// RestoreFileOpts rebuilds an input file through the batched restore
// pipeline and writes the bytes — bit-identical to RestoreFile's serial
// walk — to w. See RestoreFileStats for the plan/window statistics.
func (s *Store) RestoreFileOpts(file string, w io.Writer, opts RestoreOptions) error {
	_, err := s.RestoreFileStats(file, w, opts)
	return err
}

// RestoreFileStats is RestoreFileOpts returning the pipeline statistics
// (plan size, coalesce ratio, peak reorder-window occupancy).
func (s *Store) RestoreFileStats(file string, w io.Writer, opts RestoreOptions) (RestoreStats, error) {
	fm, err := s.ReadFileManifest(file)
	if err != nil {
		return RestoreStats{}, fmt.Errorf("store: restore %q: %w", file, err)
	}
	plan, err := planRestore(fm, opts.gap())
	if err != nil {
		return RestoreStats{}, err
	}
	return s.runRestorePipeline(plan, s.readPlanned, w, opts)
}

// readPlanned is the plain (unverified) plannedReadFn: one coalesced
// container range read — the batching win over the serial path's
// read-per-ref.
func (s *Store) readPlanned(pr *plannedRead) ([]byte, error) {
	data, err := s.ReadDiskChunkRange(pr.container, pr.start, pr.length)
	if err != nil {
		return nil, fmt.Errorf("ref %s[%d+%d]: %w", pr.container, pr.start, pr.length, err)
	}
	return data, nil
}

// runRestorePipeline executes a restore plan: synchronously for
// opts.Workers ≤ 1, otherwise with the windowed parallel pipeline.
func (s *Store) runRestorePipeline(plan *restorePlan, read plannedReadFn, w io.Writer, opts RestoreOptions) (RestoreStats, error) {
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

	start := time.Now()
	var err error
	if opts.workers() <= 1 {
		err = s.restoreSerialPlan(plan, read, w, &stats)
	} else {
		err = s.restoreParallelPlan(plan, read, w, opts, &stats)
	}
	if err == nil {
		d := s.ev.SlowOp("restore.pipeline", time.Since(start),
			events.F("file", plan.file), events.F("bytes", stats.OutputBytes),
			events.F("reads", stats.Reads), events.F("workers", stats.Workers))
		if !d {
			s.ev.Debug("restore.pipeline.done",
				events.F("file", plan.file), events.F("bytes", stats.OutputBytes),
				events.F("refs", stats.Refs), events.F("reads", stats.Reads))
		}
	}
	return stats, err
}

// restoreSerialPlan runs the schedule one read at a time on the calling
// goroutine — the Workers ≤ 1 pipeline, still coalesced.
func (s *Store) restoreSerialPlan(plan *restorePlan, read plannedReadFn, w io.Writer, stats *RestoreStats) error {
	for i := range plan.reads {
		pr := &plan.reads[i]
		if pr.length > stats.PeakWindowBytes {
			stats.PeakWindowBytes = pr.length
		}
		buf, err := s.timedRead(read, pr)
		if err != nil {
			return fmt.Errorf("store: restore %q: %w", plan.file, err)
		}
		if err := emitSegments(w, pr, buf); err != nil {
			return err
		}
	}
	return nil
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

// restoreParallelPlan is the windowed parallel pipeline: a dispatcher
// admits reads in order under the byte budget, opts.Workers goroutines
// fetch them out of order, and the calling goroutine emits in order.
func (s *Store) restoreParallelPlan(plan *restorePlan, read plannedReadFn, w io.Writer, opts RestoreOptions, stats *RestoreStats) error {
	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		results = make([][]byte, len(plan.reads))
		ready   = make([]bool, len(plan.reads))
		errs    = make([]error, len(plan.reads))
		used    int64 // bytes of admitted-but-unemitted reads
		peak    int64
		failed  bool // stop admitting/reading; emitter is unwinding
	)
	window := opts.window()
	fail := func() { // callers hold mu
		failed = true
		cond.Broadcast()
	}

	// Dispatcher: admit reads in schedule order, each only once its bytes
	// fit the window (or the window is empty, for oversized reads).
	jobs := make(chan int)
	go func() {
		defer close(jobs)
		for i := range plan.reads {
			sz := plan.reads[i].length
			mu.Lock()
			for !failed && used > 0 && used+sz > window {
				cond.Wait()
			}
			if failed {
				mu.Unlock()
				return
			}
			used += sz
			if used > peak {
				peak = used
			}
			occupancy := used
			mu.Unlock()
			hRestoreWindowBytes.Observe(occupancy)
			jobs <- i
		}
	}()

	// Readers: fetch planned ranges out of order.
	var wg sync.WaitGroup
	for k := 0; k < opts.workers(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				mu.Lock()
				aborted := failed
				mu.Unlock()
				var (
					buf []byte
					err error
				)
				if aborted {
					err = errRestoreAborted
				} else {
					buf, err = s.timedRead(read, &plan.reads[i])
				}
				mu.Lock()
				results[i], errs[i], ready[i] = buf, err, true
				if err != nil {
					failed = true
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}

	// Emitter (this goroutine): in-order reassembly from the reorder
	// buffer. Because admission and emission share one total order, the
	// read awaited here is always in flight or admissible.
	var emitErr error
	for i := range plan.reads {
		mu.Lock()
		for !ready[i] && !failed {
			cond.Wait()
		}
		if !ready[i] { // failed elsewhere before this read was fetched
			err := firstReadError(errs)
			fail()
			mu.Unlock()
			emitErr = err
			break
		}
		buf, err := results[i], errs[i]
		mu.Unlock()
		if err != nil {
			mu.Lock()
			fail()
			mu.Unlock()
			if errors.Is(err, errRestoreAborted) {
				err = firstReadError(errs)
			}
			emitErr = fmt.Errorf("store: restore %q: %w", plan.file, err)
			break
		}
		werr := emitSegments(w, &plan.reads[i], buf)
		mu.Lock()
		results[i] = nil
		used -= plan.reads[i].length
		if werr != nil {
			fail()
		}
		cond.Broadcast()
		mu.Unlock()
		if werr != nil {
			emitErr = werr
			break
		}
	}
	// Unwind: the dispatcher exits on failed (or schedule end), closing
	// jobs; readers drain remaining jobs as aborted no-ops and exit.
	wg.Wait()
	mu.Lock()
	stats.PeakWindowBytes = peak
	mu.Unlock()
	return emitErr
}

// firstReadError returns the lowest-indexed real read error (skipping
// aborted placeholders), or a generic failure — the error the emitter
// reports when it stopped because a read somewhere failed.
func firstReadError(errs []error) error {
	for _, err := range errs {
		if err != nil && !errors.Is(err, errRestoreAborted) {
			return fmt.Errorf("store: restore: %w", err)
		}
	}
	return errors.New("store: restore: pipeline failed")
}
