// Package algo defines the interface every deduplication algorithm in this
// repository implements — MHD, SI-MHD and the seven baselines alike — so the
// experiment harness, CLI and benchmarks can drive them uniformly, the one
// Options type that configures them, and the Substrate they all stand on.
package algo

import (
	"io"

	"mhdedup/internal/metrics"
	"mhdedup/internal/simdisk"
)

// Deduplicator is one deduplication engine over a simulated disk. Feed
// input files in backup-stream order with PutFile, call Finish once, then
// read metrics and restore files at will. MHD and SI-MHD (core.Dedup) take
// concurrent streams: PutFile calls of different streams may overlap, those
// of one stream may not, and Finish follows the last of them. The seven
// baselines take one stream: their calls must not overlap.
type Deduplicator interface {
	// PutFile consumes one input file.
	PutFile(name string, r io.Reader) error
	// Finish flushes caches and write-back state; must be called once
	// after the last PutFile.
	Finish() error
	// Report returns the run's statistics combined with disk-side
	// accounting.
	Report() metrics.Report
	// Restore rebuilds an ingested file into w.
	Restore(name string, w io.Writer) error
	// Disk exposes the underlying simulated disk.
	Disk() *simdisk.Disk
}
