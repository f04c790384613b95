package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of log2 buckets a Histogram keeps. Bucket 0
// holds values ≤ 0 (and 0 itself never occurs for latencies, but guards
// clock weirdness); bucket b ≥ 1 holds values in [2^(b-1), 2^b). 48
// buckets cover up to 2^47 ns ≈ 39 hours — more than any op this system
// performs.
const histBuckets = 48

// Histogram is a lock-free, log2-bucketed latency/size histogram built
// for hot paths: Observe is four atomic adds (count, sum, max, bucket)
// with no allocation and no locking, so N ingest sessions can hammer the
// same histogram concurrently and a Snapshot taken at any moment is
// consistent enough for reporting (each field individually exact).
//
// The log2 bucketing trades resolution for cost: a reported percentile is
// the upper bound of the bucket the rank falls in (clamped to the true
// max), i.e. accurate to within 2×. That is exactly the fidelity needed
// to tell "index lookup: 400ns" from "index lookup: 400µs — something is
// reading disk", which is the question this layer exists to answer.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketOf maps a value to its bucket index: 0 for v ≤ 0, otherwise
// bits.Len64(v) clamped to the last bucket — so bucket b covers
// [2^(b-1), 2^b).
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketUpper returns the largest value bucket b can hold (the upper
// bound reported for percentiles that land in b).
func bucketUpper(b int) int64 {
	if b <= 0 {
		return 0
	}
	if b >= 63 {
		return int64(^uint64(0) >> 1)
	}
	return int64(1)<<uint(b) - 1
}

// Observe records one value (for latency histograms: nanoseconds).
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records v as n observations of it: a call site that times one
// call in n records each timed call this way, so count and sum stay
// estimates over every call and the buckets keep their shape.
func (h *Histogram) ObserveN(v, n int64) {
	h.count.Add(n)
	h.sum.Add(v * n)
	MaxInt64(&h.max, v)
	h.buckets[bucketOf(v)].Add(n)
}

// ObserveSince records the elapsed time since start in nanoseconds and
// returns it, so call sites can feed the same measurement to a slow-op
// check without reading the clock twice.
func (h *Histogram) ObserveSince(start time.Time) time.Duration {
	d := time.Since(start)
	h.Observe(int64(d))
	return d
}

// HistogramSnapshot is a consistent-enough point-in-time view of a
// Histogram, JSON-ready for /metrics.json and BENCH_*.json.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	Max   int64   `json:"max"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
}

// Snapshot loads every bucket once and derives p50/p90/p99 from the
// cumulative bucket counts. Percentiles are bucket upper bounds clamped
// to the observed max; an empty histogram snapshots to all zeros.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	if s.Count == 0 {
		return s
	}
	s.Mean = float64(s.Sum) / float64(s.Count)
	var counts [histBuckets]int64
	var total int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	// Ranks are computed against the bucket total, not s.Count: under
	// concurrent Observes the two can momentarily disagree, and the
	// bucket total is the one the cumulative walk must be consistent
	// with.
	if total == 0 {
		return s
	}
	q := func(p float64) int64 {
		rank := int64(p * float64(total))
		if rank < 1 {
			rank = 1
		}
		var cum int64
		for i := 0; i < histBuckets; i++ {
			cum += counts[i]
			if cum >= rank {
				u := bucketUpper(i)
				if u > s.Max {
					u = s.Max
				}
				return u
			}
		}
		return s.Max
	}
	s.P50 = q(0.50)
	s.P90 = q(0.90)
	s.P99 = q(0.99)
	return s
}

// BucketCounts returns the cumulative per-bucket counts (bucket b ≥ 1
// holds values in [2^(b-1), 2^b)). Two successive calls bracket an
// interval: DeltaP99 over their difference yields the p99 of just the
// observations in between — the signal the maintenance scheduler paces
// itself by, where the lifetime P99 of Snapshot would be too sluggish to
// notice a fresh latency regression.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, histBuckets)
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// DeltaP99 returns the p99 upper bound of the observations recorded
// between two cumulative bucket snapshots (prev taken before cur), and
// the number of those observations. A nil/short prev is treated as all
// zeros (the interval since the histogram's birth). Zero observations
// return (0, 0).
func DeltaP99(cur, prev []int64) (p99 int64, n int64) {
	var delta [histBuckets]int64
	var total int64
	for i := 0; i < histBuckets && i < len(cur); i++ {
		d := cur[i]
		if i < len(prev) {
			d -= prev[i]
		}
		if d < 0 {
			d = 0 // racing Observe between loads; clamp, never go negative
		}
		delta[i] = d
		total += d
	}
	if total == 0 {
		return 0, 0
	}
	rank := int64(0.99 * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += delta[i]
		if cum >= rank {
			return bucketUpper(i), total
		}
	}
	return bucketUpper(histBuckets - 1), total
}
