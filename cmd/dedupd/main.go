// Command dedupd is the network deduplication server: one shared MHD (or
// SI-MHD) engine behind the internal/wire protocol. Clients chunk
// locally, offer hashes, and send only the chunk bytes the server asks
// for; the server reassembles each file's exact byte stream and ingests
// it through a per-connection engine session, so the resulting store is
// bit-identical to a local run over the same inputs.
//
// Examples:
//
//	dedupd -addr :7444 -store /var/lib/dedupd
//	dedupd -addr :7444 -algo si-mhd -ecs 8192 -metrics-addr :7445
//
// On SIGINT/SIGTERM the server drains: it stops accepting connections,
// refuses new sessions with a retryable error, lets in-flight sessions
// finish (bounded by -drain-timeout), finalizes the engine and — when
// -store is set — folds the write-ahead log into a fresh generation with
// the crash-safe commit, then exits. A second signal forces immediate exit.
//
// -metrics-addr serves the debug endpoint set: /metrics.json (operational
// counters, occupancy gauges, latency histogram snapshots and engine
// statistics), /healthz ("ok", or 503 "draining" during shutdown),
// /events.json (the recent structured event ring) and the standard
// net/http/pprof profiles under /debug/pprof/.
//
// -log-level (debug|info|warn|error) and -slow-op (duration; operations
// at or above it emit warn-level slow_op events) control the structured
// event log written to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mhdedup/dedup"
	"mhdedup/internal/core"
	"mhdedup/internal/events"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/server"
	"mhdedup/internal/session"
)

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":7444", "listen address")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics.json and /healthz on this address (off when empty)")
	flag.StringVar(&o.storeDir, "store", "", "store directory: mounted through the write-ahead log (replayed if it exists), compacted on drain")
	flag.StringVar(&o.algo, "algo", "mhd", "engine: mhd or si-mhd")
	flag.IntVar(&o.ecs, "ecs", 4096, "expected chunk size in bytes")
	flag.IntVar(&o.sd, "sd", 64, "sample distance (hashes)")
	flag.IntVar(&o.cache, "cache", 64, "manifest cache capacity")
	flag.BoolVar(&o.noBloom, "no-bloom", false, "disable the engine bloom filter")
	flag.BoolVar(&o.recipeTrees, "recipe-trees", false, "store file recipes as deduplicated recipe trees (64-bit offsets, O(log n) ranged restore)")
	flag.IntVar(&o.maxSessions, "max-sessions", 16, "maximum concurrent ingest sessions")
	flag.IntVar(&o.window, "window", 8, "per-session in-flight command window")
	flag.Int64Var(&o.chunkCache, "chunk-cache-bytes", 256<<20, "wire chunk byte cache budget (0 disables)")
	flag.IntVar(&o.restoreWorkers, "restore-workers", 4, "planned container reads each restore stream keeps in flight (1 = one at a time)")
	flag.Int64Var(&o.restoreWindow, "restore-window-bytes", 8<<20, "byte budget of a restore stream's reads in flight")
	flag.DurationVar(&o.idleTimeout, "idle-timeout", 2*time.Minute, "close connections idle longer than this")
	flag.DurationVar(&o.resumeTimeout, "resume-timeout", 2*time.Minute, "keep detached sessions resumable this long")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", time.Minute, "bound on graceful drain before forcing shutdown")
	flag.StringVar(&o.logLevel, "log-level", "info", "event log level: debug, info, warn or error")
	flag.DurationVar(&o.slowOp, "slow-op", 100*time.Millisecond, "emit a warn slow_op event for operations at or above this duration (negative disables)")
	flag.DurationVar(&o.checkpointInterval, "checkpoint-interval", 30*time.Second, "fold the write-ahead log into a fresh generation at least this often (negative disables age-triggered compaction)")
	flag.DurationVar(&o.logFlushInterval, "log-flush-interval", 200*time.Millisecond, "background group-commit cadence for the write-ahead log")
	flag.Int64Var(&o.compactLogBytes, "compact-log-bytes", 64<<20, "fold the log into a fresh generation once it exceeds this many bytes (negative disables)")
	flag.Int64Var(&o.shedLogBytes, "shed-log-bytes", 0, "shed new work once the durable log exceeds this many bytes (0 = 8x compact-log-bytes, negative disables)")
	flag.Int64Var(&o.shedPendingBytes, "shed-pending-bytes", 32<<20, "shed new work once un-fsynced log bytes exceed this (negative disables)")
	flag.DurationVar(&o.scrubInterval, "scrub-interval", 0, "verify every stored file from a consistent snapshot this often (0 disables)")
	flag.DurationVar(&o.maintenanceP99, "maintenance-p99", 50*time.Millisecond, "back background compaction/scrub off while the interval ingest p99 exceeds this (0 disables pacing)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "dedupd:", err)
		os.Exit(1)
	}
}

type options struct {
	addr           string
	metricsAddr    string
	storeDir       string
	algo           string
	ecs            int
	sd             int
	cache          int
	noBloom        bool
	recipeTrees    bool
	maxSessions    int
	window         int
	chunkCache     int64
	restoreWorkers int
	restoreWindow  int64
	idleTimeout    time.Duration
	resumeTimeout  time.Duration
	drainTimeout   time.Duration
	logLevel       string
	slowOp         time.Duration

	checkpointInterval time.Duration
	logFlushInterval   time.Duration
	compactLogBytes    int64
	shedLogBytes       int64
	shedPendingBytes   int64
	scrubInterval      time.Duration
	maintenanceP99     time.Duration
}

func run(o options) error {
	d, err := session.NewDaemon("dedupd", o.logLevel, o.slowOp)
	if err != nil {
		return err
	}
	logger, evlog := d.Logger, d.Events

	eng, dur, resumed, err := buildEngine(o, evlog)
	if err != nil {
		return err
	}
	cfg := server.Config{
		Engine:             eng,
		MaxSessions:        o.maxSessions,
		Window:             o.window,
		IdleTimeout:        o.idleTimeout,
		ResumeTimeout:      o.resumeTimeout,
		ChunkCacheBytes:    o.chunkCache,
		RestoreWorkers:     o.restoreWorkers,
		RestoreWindowBytes: o.restoreWindow,
		Events:             evlog,
	}
	if dur != nil {
		// Assigned conditionally: a typed-nil *Durability inside the
		// interface would defeat the server's nil check.
		cfg.Durability = dur
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	addr, err := d.Listen(o.addr, o.metricsAddr)
	if err != nil {
		return err
	}
	opts := srv.Options()
	logger.Printf("listening on %s (%s ECS=%d SD=%d, resumed=%v, max sessions %d, window %d, sha1 %s)",
		addr, opts.Algorithm, opts.ECS, opts.SD, resumed, o.maxSessions, o.window, hashutil.Kernel())
	metrics.Default.SetGauge("hashutil.sha_ni", hashutil.SHANI)
	if dur != nil {
		dur.Start()
		logger.Printf("write-ahead log on (checkpoint %v, flush %v, compact at %d MiB)",
			o.checkpointInterval, o.logFlushInterval, o.compactLogBytes>>20)
	}

	// /metrics.json: counters + gauges + latency histogram snapshots +
	// engine statistics.
	metricsDoc := func() any {
		cacheBytes, cacheEntries := srv.CacheStats()
		return struct {
			metrics.Export
			Sessions     int           `json:"sessions"`
			CacheBytes   int64         `json:"chunk_cache_bytes"`
			CacheEntries int           `json:"chunk_cache_entries"`
			Engine       metrics.Stats `json:"engine"`
		}{metrics.Default.ExportAll(), srv.SessionCount(), cacheBytes, cacheEntries, eng.Stats()}
	}
	if err := d.Run(srv, o.drainTimeout, metricsDoc, nil); err != nil {
		return err
	}

	if err := eng.Finish(); err != nil {
		return fmt.Errorf("finish: %w", err)
	}
	if dur != nil {
		// The log already holds everything; fold it so the directory
		// restarts from a bare generation, then stop the machinery.
		if err := dur.Compact(); err != nil {
			return fmt.Errorf("final compaction: %w", err)
		}
		if err := dur.Close(); err != nil {
			return fmt.Errorf("close log: %w", err)
		}
		logger.Printf("store compacted to %s", o.storeDir)
	}
	rep := eng.Report()
	logger.Printf("shut down: %d files, %d input bytes, real DER %.4f",
		rep.Files, rep.InputBytes, rep.RealDER())
	return nil
}

// buildEngine constructs (or resumes) the shared engine. Only MHD and
// SI-MHD are session-capable, so those are the only algorithms served.
// A store directory is always mounted through dedup.ResumeDurable, so
// every mutation is journaled and the returned Durability handle drives
// checkpoints and admission control; without one the engine is in-memory.
func buildEngine(o options, evlog *events.Log) (*core.Dedup, *dedup.Durability, bool, error) {
	algo := dedup.Algorithm(o.algo)
	if algo != dedup.MHD && algo != dedup.SIMHD {
		return nil, nil, false, fmt.Errorf("algorithm %q is not servable (need %s or %s)", o.algo, dedup.MHD, dedup.SIMHD)
	}
	opts := dedup.Options{
		ECS:            o.ecs,
		SD:             o.sd,
		CacheManifests: o.cache,
		DisableBloom:   o.noBloom,
		RecipeTrees:    o.recipeTrees,
	}
	if o.storeDir == "" {
		eng, err := dedup.New(algo, opts)
		if err != nil {
			return nil, nil, false, err
		}
		return eng.(*core.Dedup), nil, false, nil
	}
	_, statErr := os.Stat(o.storeDir)
	resumed := statErr == nil
	dopt := dedup.DurabilityOptions{
		FlushInterval:    o.logFlushInterval,
		CompactLogBytes:  o.compactLogBytes,
		CompactInterval:  o.checkpointInterval,
		ShedPendingBytes: o.shedPendingBytes,
		ShedLogBytes:     o.shedLogBytes,
		ScrubInterval:    o.scrubInterval,
		Events:           evlog,
	}
	if o.maintenanceP99 > 0 {
		// Same name server.New resolves, so maintenance paces itself
		// by the live ingest apply latency.
		dopt.PaceHistogram = metrics.Default.Histogram("server.apply_ns")
		dopt.P99Budget = o.maintenanceP99
	}
	eng, dur, rep, err := dedup.ResumeDurable(algo, opts, o.storeDir, dopt)
	if err != nil {
		return nil, nil, false, fmt.Errorf("open durable store %s: %w", o.storeDir, err)
	}
	if rep.Records > 0 || rep.Truncated {
		evlog.Info("wal.replayed",
			events.F("records", rep.Records),
			events.F("bytes", rep.Bytes),
			events.F("segments", rep.Segments),
			events.F("torn_tail", rep.Truncated))
	}
	return eng.(*core.Dedup), dur, resumed, nil
}
