// Package metrics defines the statistics every deduplicator collects and
// the derived quantities the paper's evaluation reports: data-only and real
// Duplication Elimination Ratio (DER), MetaDataRatio, ThroughputRatio, and
// Duplication Aggregation Degree (DAD), plus the per-category metadata
// breakdown of Fig 7.
package metrics

import (
	"fmt"
	"strings"

	"mhdedup/internal/simdisk"
)

// Stats is the raw counter set a deduplication run produces. The paper's
// symbols map as: Files=F, NonDupChunks=N, DupChunks=D, DupSlices=L.
type Stats struct {
	// InputBytes is the total size of the input stream.
	InputBytes int64
	// FilesTotal counts all input files; Files counts those that were not
	// complete duplicates (the paper's F — each costs a DiskChunk and a
	// Manifest).
	FilesTotal int64
	Files      int64
	// ChunksIn counts small chunks produced from the input (N + D at ECS
	// granularity).
	ChunksIn int64
	// DupChunks (D) and NonDupChunks (N) classify ChunksIn by whether the
	// chunk's bytes were eliminated.
	DupChunks    int64
	NonDupChunks int64
	// DupBytes is the number of input bytes eliminated as duplicates.
	DupBytes int64
	// DupSlices (L) counts maximal runs of consecutive duplicate data.
	DupSlices int64
	// StoredDataBytes is the payload written to DiskChunks.
	StoredDataBytes int64
	// ChunkedBytes is the input volume scanned by the rolling fingerprint;
	// HashedBytes the volume the paper's method digests by SHA-1 (Fig 8's
	// model; match extension re-hashes buffered bytes, so this can exceed
	// ChunkedBytes), not what the CPU hashed: see core.extend.rehashed_bytes.
	ChunkedBytes int64
	HashedBytes  int64
	// RAMBytes is the resident memory charged to the algorithm: bloom
	// filter or sparse index plus the manifest cache.
	RAMBytes int64
	// HHROps counts hysteresis re-chunking operations; HHRDiskAccesses the
	// extra disk accesses they caused (chunk reloads + manifest
	// write-backs) — Fig 10(b).
	HHROps          int64
	HHRDiskAccesses int64
	// ManifestLoads counts manifest reads from disk (Table V).
	ManifestLoads int64
	// FMEDupChunks counts the chunks forward match extension (FME and its
	// HHR) resolved as duplicates: their own digests were never looked up.
	FMEDupChunks int64
	// BigChunkQueries counts duplicate queries made at big-chunk
	// granularity (Bimodal and SubChunk only).
	BigChunkQueries int64
}

// Report combines a run's Stats with the storage-side accounting captured
// from the simulated disk.
type Report struct {
	Stats
	Disk simdisk.Counters

	// Inode counts by category (Fig 7(a) is their sum normalized by input
	// size).
	InodesData, InodesHook, InodesManifest, InodesFileManifest int64
	// Byte footprints by category.
	HookBytes, ManifestBytes, FileManifestBytes int64
	// MetadataBytes is hooks + manifests + file manifests + 256 B per
	// inode — the numerator of MetaDataRatio and the overhead charged
	// against the real DER.
	MetadataBytes int64
}

// BuildReport snapshots disk-side accounting into a Report.
func BuildReport(s Stats, d *simdisk.Disk) Report {
	return Report{
		Stats:              s,
		Disk:               d.Counters(),
		InodesData:         d.ObjectCount(simdisk.Data),
		InodesHook:         d.ObjectCount(simdisk.Hook),
		InodesManifest:     d.ObjectCount(simdisk.Manifest),
		InodesFileManifest: d.ObjectCount(simdisk.FileManifest),
		HookBytes:          d.BytesStored(simdisk.Hook),
		ManifestBytes:      d.BytesStored(simdisk.Manifest),
		FileManifestBytes:  d.BytesStored(simdisk.FileManifest),
		MetadataBytes:      d.MetadataBytes(),
	}
}

// InodeCount returns the total number of stored objects.
func (r Report) InodeCount() int64 {
	return r.InodesData + r.InodesHook + r.InodesManifest + r.InodesFileManifest
}

// InodesPerMB returns inodes per MiB of input — Fig 7(a)'s y-axis.
func (r Report) InodesPerMB() float64 {
	return Ratio(float64(r.InodeCount()), float64(r.InputBytes)/(1<<20))
}

// DataOnlyDER is input size over stored data size, ignoring metadata.
func (r Report) DataOnlyDER() float64 {
	return Ratio(float64(r.InputBytes), float64(r.StoredDataBytes))
}

// RealDER is input size over everything the file system stores — data plus
// all metadata. This is the metric MHD optimizes.
func (r Report) RealDER() float64 {
	return Ratio(float64(r.InputBytes), float64(r.StoredDataBytes+r.MetadataBytes))
}

// MetaDataRatio is total metadata over input size (reported as % in Fig 7
// and Fig 8).
func (r Report) MetaDataRatio() float64 {
	return Ratio(float64(r.MetadataBytes), float64(r.InputBytes))
}

// ManifestMetaRatio is the Fig 7(b) quantity: manifest + hook bytes over
// input size.
func (r Report) ManifestMetaRatio() float64 {
	return Ratio(float64(r.ManifestBytes+r.HookBytes), float64(r.InputBytes))
}

// FileManifestMetaRatio is the Fig 7(c) quantity.
func (r Report) FileManifestMetaRatio() float64 {
	return Ratio(float64(r.FileManifestBytes), float64(r.InputBytes))
}

// DAD is the Duplication Aggregation Degree: duplicate bytes per duplicate
// slice. Larger means duplication is more concentrated (Fig 10(a)).
func (r Report) DAD() float64 { return Ratio(float64(r.DupBytes), float64(r.DupSlices)) }

// Ratio is a/b, or 0 when b is 0 (nothing was measured).
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ThroughputRatio evaluates the paper's throughput metric under the given
// cost model: plain-copy time over deduplication time.
func (r Report) ThroughputRatio(m simdisk.CostModel) float64 {
	return m.ThroughputRatio(r.InputBytes, r.ChunkedBytes, r.HashedBytes, r.Disk)
}

// String renders the headline numbers for logs and CLI output.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "input=%s stored=%s meta=%s", fmtBytes(r.InputBytes), fmtBytes(r.StoredDataBytes), fmtBytes(r.MetadataBytes))
	fmt.Fprintf(&b, " dataDER=%.3f realDER=%.3f metaRatio=%.4f%%", r.DataOnlyDER(), r.RealDER(), r.MetaDataRatio()*100)
	fmt.Fprintf(&b, " N=%d D=%d L=%d F=%d DAD=%.0fB", r.NonDupChunks, r.DupChunks, r.DupSlices, r.Files, r.DAD())
	return b.String()
}

func fmtBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(n)/float64(div), "KMGTPE"[exp])
}
