package simdisk

import "time"

// CostModel converts access counters into time, standing in for the 2013
// testbed (a single HDD and software SHA-1) behind the paper's
// ThroughputRatio measurements. All rates are bytes per second.
type CostModel struct {
	// SeekLatency is charged once per disk access — the positioning cost
	// that makes metadata I/O the bottleneck.
	SeekLatency time.Duration
	// ReadBandwidth and WriteBandwidth are sequential transfer rates.
	ReadBandwidth  float64
	WriteBandwidth float64
	// ChunkingRate is the CPU throughput of Rabin-fingerprint scanning.
	ChunkingRate float64
	// HashingRate is the CPU throughput of SHA-1.
	HashingRate float64
}

// Default2013 is calibrated to the paper's era: a 7200 rpm HDD (8 ms
// average positioning, ~120 MB/s sequential) and single-core software
// chunking/SHA-1 rates. The ThroughputRatio values it produces fall in the
// 0.2–0.5 band the paper reports.
func Default2013() CostModel {
	return CostModel{
		SeekLatency:    8 * time.Millisecond,
		ReadBandwidth:  120e6,
		WriteBandwidth: 110e6,
		ChunkingRate:   400e6,
		HashingRate:    250e6,
	}
}

// DiskTime returns the modeled time spent on the disk operations recorded
// in c: one seek per access plus transfer time for the bytes moved.
func (m CostModel) DiskTime(c Counters) time.Duration {
	seeks := time.Duration(c.Accesses()) * m.SeekLatency
	read := seconds(float64(c.BytesRead.Total()) / m.ReadBandwidth)
	written := seconds(float64(c.BytesWritten.Total()) / m.WriteBandwidth)
	return seeks + read + written
}

// CPUTime returns the modeled compute time for scanning chunkedBytes
// through the rolling fingerprint and hashing hashedBytes with SHA-1.
// hashedBytes exceeds the input size when match extension re-hashes
// buffered regions; both are reported by the deduplicators.
func (m CostModel) CPUTime(chunkedBytes, hashedBytes int64) time.Duration {
	return seconds(float64(chunkedBytes)/m.ChunkingRate) +
		seconds(float64(hashedBytes)/m.HashingRate)
}

// IngestTime returns the modeled time to read inputBytes of input
// sequentially from the source disk (charged to every algorithm alike,
// including plain copying).
func (m CostModel) IngestTime(inputBytes int64) time.Duration {
	return seconds(float64(inputBytes) / m.ReadBandwidth)
}

// CopyTime returns the modeled time to pass inputBytes through the system
// without deduplication — read it and write it back sequentially. This is
// the numerator of the paper's ThroughputRatio.
func (m CostModel) CopyTime(inputBytes int64) time.Duration {
	return m.IngestTime(inputBytes) + seconds(float64(inputBytes)/m.WriteBandwidth)
}

// DedupTime returns the modeled wall time for a deduplication run: reading
// the input, CPU for chunking and hashing, and all recorded disk I/O.
func (m CostModel) DedupTime(inputBytes, chunkedBytes, hashedBytes int64, c Counters) time.Duration {
	return m.IngestTime(inputBytes) + m.CPUTime(chunkedBytes, hashedBytes) + m.DiskTime(c)
}

// ThroughputRatio returns CopyTime / DedupTime — the paper's throughput
// metric (larger is faster deduplication).
func (m CostModel) ThroughputRatio(inputBytes, chunkedBytes, hashedBytes int64, c Counters) float64 {
	dedup := m.DedupTime(inputBytes, chunkedBytes, hashedBytes, c)
	if dedup <= 0 {
		return 0
	}
	return float64(m.CopyTime(inputBytes)) / float64(dedup)
}

func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
