package main

import (
	"fmt"
	"os"
	"time"

	"mhdedup/dedup"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
)

// runDurable is one repetition of fresh-durable: PutFile + Commit per
// file into a write-ahead-logged store in a scratch directory, close
// WITHOUT compaction, reopen (so the mount is a full log replay), restore
// from the reopened store, then compact.
func runDurable(h *harness, in *input, tr *tracer) (*rep, error) {
	r := h.newRep()
	dir, err := os.MkdirTemp(h.tmp, "durable-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	opts := engineOptions(in)
	// Background flushing, compaction and scrubbing off: the workload
	// measures the synchronous put+commit path, not a schedule.
	dopt := dedup.DurabilityOptions{FlushInterval: -1}

	eng, dur, _, err := dedup.ResumeDurable(dedup.MHD, opts, dir, dopt)
	if err != nil {
		return nil, fmt.Errorf("open durable store: %w", err)
	}
	if err := h.ingest(r, tr, eng, in, dur.Commit); err != nil {
		dur.Close()
		return nil, err
	}
	ws := dur.WAL().Stats()
	r.v["simdisk.wal_bytes_per_user_byte"] = ratio(float64(ws.DurableBytes), float64(in.bytes))
	r.v["simdisk.wal_records"] = float64(ws.DurableRecords)
	r.v["simdisk.wal_syncs"] = float64(ws.Syncs)
	r.v["store.commit_p50_ms"] = quantile(r.samples["commit"], 0.5)
	r.v["store.commit_p95_ms"] = quantile(r.samples["commit"], 0.95)
	r.keepFor(eng.Disk(), ws.Syncs)
	if err := dur.Close(); err != nil {
		return nil, fmt.Errorf("close durable store: %w", err)
	}

	t0 := time.Now()
	eng, dur, replay, err := dedup.ResumeDurable(dedup.MHD, opts, dir, dopt)
	d := time.Since(t0)
	tr.add("store.ResumeDurable", 0, "mount", t0, d)
	if err != nil {
		return nil, fmt.Errorf("reopen durable store: %w", err)
	}
	defer dur.Close()
	r.v["store.open_s"] = d.Seconds()
	r.v["simdisk.replay_records"] = float64(replay.Records)
	r.v["simdisk.replay_mb_s"] = mbPerS(replay.Bytes, d.Seconds())
	r.calibrate()

	h.restorePasses(r, tr, store.New(eng.Disk(), store.FormatMHD), in)

	// Compaction rewrites every object as a file of its own and takes
	// longer than the rest of the repetition; nothing end-to-end follows
	// it, so only the traced repetition, which reports it, pays for it.
	if tr == nil {
		return r, nil
	}
	t0 = time.Now()
	err = dur.Compact()
	d = time.Since(t0)
	tr.add("store.Compact", 0, "", t0, d)
	if err != nil {
		return nil, fmt.Errorf("compact: %w", err)
	}
	r.v["store.compact_s"] = d.Seconds()
	size, err := simdisk.DirSize(dir)
	if err != nil {
		return nil, fmt.Errorf("measure compacted store: %w", err)
	}
	r.v["simdisk.dir_bytes_per_user_byte"] = ratio(float64(size), float64(in.bytes))
	return r, nil
}
