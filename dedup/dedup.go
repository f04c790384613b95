// Package dedup is the public API of mhdedup: a deduplication library
// reproducing "Hysteresis Re-chunking Based Metadata Harnessing
// Deduplication of Disk Images" (Zhou & Wen, ICPP 2013).
//
// Nine engines are provided behind one interface: MHD (the paper's
// contribution — sampling and hash merging, bi-directional match extension
// and hysteresis re-chunking) and its SI-MHD variant; the paper's four
// comparison baselines (plain CDC, Bimodal, SubChunk, SparseIndexing); and
// the related-work schemes its survey discusses (FBC, Fingerdiff, Extreme
// Binning). All write to a simulated disk that accounts inodes, metadata
// bytes and disk accesses exactly as the paper's analysis does, so the
// trade-offs the paper charts can be measured for any workload.
//
// Typical use:
//
//	eng, err := dedup.New(dedup.MHD, dedup.Options{ECS: 4096, SD: 64})
//	...
//	eng.PutFile("backup-2026-07-05.img", reader)
//	eng.Finish()
//	rep := eng.Report()
//	fmt.Println(rep.RealDER(), rep.MetaDataRatio())
//	eng.Restore("backup-2026-07-05.img", writer)
package dedup

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"mhdedup/internal/algo"
	"mhdedup/internal/core"
	"mhdedup/internal/exp"
	"mhdedup/internal/metrics"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
	"mhdedup/internal/trace"
)

// Algorithm selects a deduplication engine.
type Algorithm string

// The nine engines.
const (
	// MHD is the paper's metadata harnessing deduplication (BF-MHD).
	MHD Algorithm = exp.AlgoMHD
	// CDC is plain LBFS-style content-defined-chunking deduplication with
	// a full per-chunk index.
	CDC Algorithm = exp.AlgoCDC
	// Bimodal re-chunks non-duplicate big chunks at transition points
	// (Kruus et al., FAST'10).
	Bimodal Algorithm = exp.AlgoBimodal
	// SubChunk re-chunks every non-duplicate big chunk and coalesces the
	// survivors into containers (Romanski et al., SYSTOR'11).
	SubChunk Algorithm = exp.AlgoSubChunk
	// SparseIndexing deduplicates segments against champion manifests
	// found through a sampled in-RAM index (Lillibridge et al., FAST'09).
	SparseIndexing Algorithm = exp.AlgoSparse
	// SIMHD is MHD with its hooks held in a sparse in-RAM index instead of
	// on-disk hook objects — the SI-MHD variant §V of the paper mentions.
	SIMHD Algorithm = exp.AlgoSIMHD
	// FBC re-chunks big chunks that contain frequently recurring content,
	// using a count-min frequency sketch (Lu et al., MASCOTS'10).
	FBC Algorithm = exp.AlgoFBC
	// Fingerdiff coalesces contiguous non-duplicate chunks on disk while a
	// full in-RAM database indexes every chunk (Bobbarjung et al., 2006).
	Fingerdiff Algorithm = exp.AlgoFingerdiff
	// ExtremeBinning deduplicates each file against a single bin chosen by
	// its representative (minimum-hash) chunk (Bhagwat et al., 2009).
	ExtremeBinning Algorithm = exp.AlgoExtremeBinning
)

// Algorithms lists every available engine.
func Algorithms() []Algorithm {
	out := make([]Algorithm, len(exp.AllAlgorithms))
	for i, a := range exp.AllAlgorithms {
		out[i] = Algorithm(a)
	}
	return out
}

// Engine is a deduplication engine: feed input files in stream order, call
// Finish once, then read the Report and Restore files at will. MHD and
// SI-MHD take concurrent streams (IngestParallel); the other seven take
// one, and their calls must not overlap.
type Engine = algo.Deduplicator

// Report carries a run's statistics and derived metrics (DER,
// MetaDataRatio, DAD, ThroughputRatio, per-category metadata breakdown).
type Report = metrics.Report

// CostModel converts simulated-disk access counts into time for the
// ThroughputRatio metric.
type CostModel = simdisk.CostModel

// DefaultCostModel returns the 2013-era HDD + software SHA-1 calibration
// used in the paper reproduction.
func DefaultCostModel() CostModel { return simdisk.Default2013() }

// Options configures an engine; the zero value is the paper's setting, and
// each field's doc names its default. ECS, TTTD and FastCDC are part of a
// store's cut contract (see Resume).
type Options = algo.Options

// built marks a construction error from the engine table as this package's.
func built(eng Engine, err error) (Engine, error) {
	if err != nil {
		return nil, fmt.Errorf("dedup: %w", err)
	}
	return eng, nil
}

// New returns an engine for the given algorithm.
func New(a Algorithm, opt Options) (Engine, error) {
	return built(exp.Build(exp.Params{Algo: string(a), Options: opt}))
}

// IngestItem is one input file of an ingest stream: the Restore key and an
// opener returning its contents.
type IngestItem = core.Item

// IngestStream is an ordered sequence of input files sharing backup-stream
// locality (one machine's disk-image history). Files within a stream are
// always ingested in order; different streams may run concurrently.
type IngestStream = core.Stream

// IngestParallel deduplicates the given streams on eng, up to workers of
// them at once. workers ≤ 1 ingests sequentially in stream order —
// bit-identical to a serial PutFile loop. Engines that do not support
// concurrent ingest (everything except MHD and SIMHD) return an error when
// workers > 1 and run the same sequential loop otherwise. A failure to
// open, put or close an item fails the ingest on every engine.
func IngestParallel(eng Engine, workers int, streams []IngestStream) error {
	if si, ok := eng.(interface {
		IngestStreamsContext(context.Context, int, []IngestStream) error
	}); ok {
		return si.IngestStreamsContext(context.Background(), workers, streams)
	}
	if workers > 1 {
		return fmt.Errorf("dedup: engine %T does not support concurrent ingest", eng)
	}
	for _, st := range streams {
		if err := core.IngestStream(context.Background(), st, eng.PutFile); err != nil {
			return err
		}
	}
	return nil
}

// Workload re-exports the synthetic disk-image backup generator so library
// users can produce realistic test streams.
type Workload = trace.Dataset

// WorkloadConfig configures a synthetic workload.
type WorkloadConfig = trace.Config

// WorkloadFile describes one file of a workload.
type WorkloadFile = trace.FileInfo

// DefaultWorkloadConfig returns the 14-machine × 14-day configuration whose
// duplication statistics match the paper's trace.
func DefaultWorkloadConfig() WorkloadConfig { return trace.Default() }

// NewWorkload builds a synthetic disk-image backup workload.
func NewWorkload(cfg WorkloadConfig) (*Workload, error) { return trace.New(cfg) }

// SaveStore materializes an engine's deduplicated store to a directory
// (one file per chunk/hook/manifest object). A store saved after Finish
// can be reopened later with OpenStore and restored from without the
// original engine.
func SaveStore(eng Engine, dir string) error {
	return eng.Disk().SaveDir(dir)
}

// Store is a handle to a saved deduplicated store: it can list, verify and
// restore the ingested files, scrub out corruption, and garbage-collect.
//
// A Store is safe for concurrent use. The locking contract: reads
// (Files, Restore, VerifyRestore, Check) may run concurrently with each
// other; mutations (Delete, Sweep, Scrub, Save) are exclusive — they
// wait for in-flight reads to finish and block new ones, so a Restore
// never observes a half-swept object set and a Sweep never reclaims a
// container out from under a reader.
type Store struct {
	// mu is the object-set lock: read operations take RLock, mutating
	// operations take Lock. Lock order is always mu before verMu.
	mu  sync.RWMutex
	st  *store.Store
	dir string

	// verMu guards only the ver pointer: its lazy construction and its
	// invalidation. Restores run on the Verifier outside it.
	verMu sync.Mutex
	// ver is the shared Verifier (see verifier), dropped whenever the
	// object set mutates.
	ver *store.Verifier
}

// RecoverReport describes what crash recovery found and repaired in a store
// directory: the generation mounted, partial saves rolled back, and whether
// the commit marker had to be rewritten.
type RecoverReport = simdisk.RecoverReport

// RecoverStore repairs the debris of an interrupted SaveStore/Save in dir:
// partially written generations are rolled back and the commit marker is
// rewritten if it was torn, leaving exactly the last consistent generation.
// It is idempotent and a no-op on clean or empty directories.
// OpenStore and Resume make the same repairs, best-effort, as they load.
func RecoverStore(dir string) (RecoverReport, error) {
	return simdisk.Recover(dir)
}

// OpenStore opens a directory written by SaveStore: the last consistent
// generation, never a hybrid, plus the surviving prefix of the write-ahead
// log a durable server run leaves until compaction folds it, read in one
// pass. An interrupted save is rolled back and a torn log tail trimmed on the
// way, when the directory can be written.
func OpenStore(dir string) (*Store, error) {
	disk, _, err := simdisk.Load(dir, true)
	if err != nil {
		return nil, err
	}
	c, _ := store.ContractOf(disk)
	return &Store{st: store.New(disk, c.Format), dir: dir}, nil
}

// Files lists the restorable file names, sorted.
func (s *Store) Files() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := s.st.Disk().Names(simdisk.FileManifest)
	sort.Strings(names)
	return names
}

// Restore rebuilds one file into w. Concurrent Restores are fine;
// mutations (Delete, Sweep, Scrub) wait until in-flight restores finish.
// It is RestoreRange of the whole file.
func (s *Store) Restore(name string, w io.Writer) error {
	_, err := s.RestoreRange(name, 0, -1, w)
	return err
}

// RangeStats reports what a ranged restore did: the bytes written, the
// recipe chunks read to find them (the O(log n) seek cost when the file's
// recipe is a tree), and the resolved [Offset, Offset+Length) window.
type RangeStats = store.RangeStats

// RestoreRange rebuilds the byte range [offset, offset+length) of one
// file into w. A negative length means "to end of file"; a range past EOF
// is clamped (an offset at or past EOF succeeds and writes nothing). When
// the file's recipe is stored as a recipe tree (Options.RecipeTrees), the
// seek reads O(log n) recipe chunks instead of the whole manifest. The
// recipe's coalesced container reads are fetched one at a time on the
// calling goroutine.
func (s *Store) RestoreRange(name string, offset, length int64, w io.Writer) (RangeStats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.RestoreRange(name, offset, length, w, store.RestoreOptions{})
}

// VerifyRestoreRange is RestoreRange with VerifyRestore's end-to-end
// chunk verification: every manifest entry overlapping a byte served to w
// is re-hashed against its content address before that byte is written,
// with reads hashed side by side on every core. Like Restore, it runs
// concurrently with other restores, verified or not.
func (s *Store) VerifyRestoreRange(name string, offset, length int64, w io.Writer) (RangeStats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.verifier().RestoreRange(name, offset, length, w, store.RestoreOptions{})
}

// Check runs an offline consistency check of the store (the system's
// fsck): every manifest must decode and tile real chunk data, every hook
// must point at a real manifest, every file must be restorable. It returns
// one line per problem found; nil means the store is consistent.
func (s *Store) Check() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return store.Check(s.st.Disk(), s.st.Format()).Problems
}

// VerifyOpts tunes verified restore and scrub: MaxRetries bounds how many
// times a failed read or hash mismatch is retried before the damage is
// declared persistent (transient faults heal on retry; latent media
// corruption does not).
type VerifyOpts = store.VerifyOpts

// ScrubReport summarizes a Scrub: what was checked, what was corrupt, what
// was quarantined, and which files lost data.
type ScrubReport = store.ScrubReport

// VerifyRestore rebuilds one file into w with end-to-end verification:
// the restore reads, per planned container read, exactly the manifest
// entries that overlap the bytes it serves, re-hashes each against the
// content address the manifest vouches for, and writes to w from the very
// buffer that hashed clean — never from a separate, unchecked re-read. So
// it costs what it restores. Ranges no manifest vouches for are refused;
// transient read faults are retried; a persistent mismatch fails the
// restore with an error naming the corrupt entry, so w never silently
// receives corrupt data. It is VerifyRestoreRange of the whole file.
func (s *Store) VerifyRestore(name string, w io.Writer) error {
	_, err := s.VerifyRestoreRange(name, 0, -1, w)
	return err
}

// verifier returns the shared Verifier, building it on first use. It
// caches the manifest claims of the containers restores have touched (in
// the multi-container format: of every manifest), so `restore -all
// -verify` decodes each manifest once; mutations drop it. Callers hold
// s.mu at least shared.
func (s *Store) verifier() *store.Verifier {
	s.verMu.Lock()
	defer s.verMu.Unlock()
	if s.ver == nil {
		s.ver = store.NewVerifier(s.st, store.VerifyOpts{})
	}
	return s.ver
}

// invalidateVerifier drops the cached claims; the next VerifyRestore
// reloads them over the mutated object set. Callers hold s.mu exclusively
// (lock order mu → verMu).
func (s *Store) invalidateVerifier() {
	s.verMu.Lock()
	s.ver = nil
	s.verMu.Unlock()
}

// Scrub re-hashes every chunk of every container against the content
// addresses its manifests vouch for, with bounded retry to separate
// transient faults from latent corruption. Objects with persistent damage
// (corrupt or unreadable containers, undecodable manifests) are removed
// from the store and their bytes preserved under dir/quarantine/ for
// forensics; the report lists exactly what was quarantined and which files
// are affected. The in-RAM store is mutated immediately; call Save to
// persist the scrubbed state.
func (s *Store) Scrub(opts VerifyOpts) (ScrubReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.invalidateVerifier()
	quarantine := func(cat simdisk.Category, name string, data []byte) error {
		if s.dir == "" {
			return nil
		}
		qdir := filepath.Join(s.dir, "quarantine")
		if err := os.MkdirAll(qdir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(qdir, cat.String()+"-"+simdisk.EncodeName(name)), data, 0o644)
	}
	return s.st.Scrub(opts, quarantine)
}

// Resume reopens a store directory written by SaveStore and returns an
// engine that deduplicates new files against everything already stored,
// cut as the store records: an unset algorithm (""), ECS or chunker (TTTD,
// FastCDC) adopts the store's cut contract, one set otherwise is refused.
// The in-RAM detection state is rebuilt from the on-disk hooks, so Resume
// is supported for the algorithms whose detection state lives on disk:
// MHD, SIMHD and CDC. Statistics start fresh — the Report covers the new
// session's ingest only; restore covers all files ever stored.
//
// If the directory carries a write-ahead log from a durable server run
// (see ResumeDurable), its surviving records are replayed on top of the
// loaded generation, so nothing a durable run acknowledged is lost. The
// resumed engine itself is NOT durable — new work persists at the next
// SaveStore, which also supersedes and clears the old log.
func Resume(a Algorithm, opt Options, dir string) (Engine, error) {
	disk, _, err := simdisk.Load(dir, true)
	if err != nil {
		return nil, err
	}
	return built(exp.Resume(exp.Params{Algo: string(a), Options: opt}, disk))
}

// Durability is a handle to a store directory's continuous-durability
// machinery (see ResumeDurable): Commit group-commits the write-ahead log
// (the acknowledgement barrier a server acks through), Compact folds the
// log into a fresh generation, Overloaded answers admission control, and
// Start runs background flushing, compaction and online scrubbing paced
// by an ingest-latency budget.
type Durability = store.Durable

// DurabilityOptions tunes a Durability; see store.DurableOptions.
type DurabilityOptions = store.DurableOptions

// WALReplayReport describes what log replay applied and discarded while
// opening a durable store.
type WALReplayReport = simdisk.WALReplayReport

// ResumeDurable opens (or creates) dir as a continuously-durable store and
// returns an engine over it plus the Durability handle. Unlike Resume, the
// mounted disk carries a write-ahead log: every object mutation the engine
// performs is journaled, Commit makes everything so far crash-durable in
// one group-committed fsync, and a later ResumeDurable (or Resume, or
// OpenStore) replays whatever the log holds on top of the newest committed
// generation — so a crash loses at most the records after the last Commit,
// never an acknowledged one. Supported for the Resume-capable algorithms
// (MHD, SIMHD, CDC), with a and opt checked as by Resume; dir may be empty
// or absent (a fresh store, whose cut contract is durable on return).
func ResumeDurable(a Algorithm, opt Options, dir string, dopt DurabilityOptions) (Engine, *Durability, WALReplayReport, error) {
	dur, rep, err := store.OpenDurable(dir, dopt)
	if err != nil {
		return nil, nil, rep, err
	}
	eng, err := built(exp.Resume(exp.Params{Algo: string(a), Options: opt}, dur.Disk()))
	if err == nil {
		err = dur.WAL().Sync()
	}
	if err != nil {
		dur.Close()
		return nil, nil, rep, err
	}
	return eng, dur, rep, nil
}

// GCStats reports what a Sweep reclaimed.
type GCStats = store.GCStats

// Delete removes a file's recipe from the store. Shared chunk data remains
// until Sweep shows nothing references it.
func (s *Store) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.invalidateVerifier()
	return s.st.DeleteFile(name)
}

// Sweep reclaims every container no remaining file references, with its
// manifests and dangling hooks — the store's garbage collector.
func (s *Store) Sweep() (GCStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.invalidateVerifier()
	return s.st.Sweep()
}

// Save materializes the store's current state (after deletions/sweeps) to
// a directory, as SaveStore does for a live engine.
func (s *Store) Save(dir string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Disk().SaveDir(dir)
}
