package metrics

import (
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries pins the log2 bucket layout: bucket 0 holds v ≤ 0
// and bucket b ≥ 1 holds [2^(b-1), 2^b), with the last bucket absorbing
// everything larger.
func TestBucketBoundaries(t *testing.T) {
	for _, tc := range []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4},
		{1023, 10}, {1024, 11},
		{1 << 46, 47},
		{1 << 47, histBuckets - 1}, // clamped
		{1 << 60, histBuckets - 1}, // clamped
	} {
		if got := bucketOf(tc.v); got != tc.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	// Every positive value must fall inside its bucket's bound, and (for
	// unclamped buckets) miss the previous bucket's bound — the "within
	// 2×" percentile accuracy contract.
	for _, v := range []int64{1, 2, 3, 5, 100, 4096, 1 << 20, 1 << 40} {
		b := bucketOf(v)
		if u := bucketUpper(b); u < v {
			t.Errorf("bucketUpper(bucketOf(%d)) = %d < value", v, u)
		}
		if b > 1 {
			if u := bucketUpper(b - 1); u >= v {
				t.Errorf("value %d also fits bucket %d (upper %d); bucketing too coarse", v, b-1, u)
			}
		}
	}
	if u := bucketUpper(0); u != 0 {
		t.Errorf("bucketUpper(0) = %d, want 0", u)
	}
	if u := bucketUpper(63); u <= 0 {
		t.Errorf("bucketUpper(63) = %d, want positive (no overflow)", u)
	}
}

// TestHistogramSnapshot checks exact fields (count, sum, mean, max) and
// the 2×-accurate percentile contract on a known distribution.
func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s != (HistogramSnapshot{}) {
		t.Fatalf("empty histogram snapshot = %+v, want zeros", s)
	}
	// 90 fast observations, 10 slow ones: p50/p90 land in the fast
	// bucket, p99 in the slow one.
	for i := 0; i < 90; i++ {
		h.Observe(100)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1_000_000)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Sum != 90*100+10*1_000_000 || s.Max != 1_000_000 {
		t.Fatalf("count=%d sum=%d max=%d", s.Count, s.Sum, s.Max)
	}
	if want := float64(s.Sum) / 100; s.Mean != want {
		t.Fatalf("mean = %v, want %v", s.Mean, want)
	}
	// p50 and p90 must report the fast cohort within 2×, p99 the slow one.
	if s.P50 < 100 || s.P50 >= 200 {
		t.Errorf("p50 = %d, want in [100, 200)", s.P50)
	}
	if s.P90 < 100 || s.P90 >= 200 {
		t.Errorf("p90 = %d, want in [100, 200)", s.P90)
	}
	if s.P99 != 1_000_000 {
		// The slow bucket's upper bound clamps to the observed max.
		t.Errorf("p99 = %d, want clamped to max 1000000", s.P99)
	}
	if s.P50 > s.P90 || s.P90 > s.P99 || s.P99 > s.Max {
		t.Errorf("percentiles not monotone: %d %d %d max %d", s.P50, s.P90, s.P99, s.Max)
	}
}

// TestObserveSince records exactly one elapsed measurement and returns it.
func TestObserveSince(t *testing.T) {
	var h Histogram
	start := time.Now()
	time.Sleep(time.Millisecond)
	d := h.ObserveSince(start)
	if d < time.Millisecond {
		t.Fatalf("returned elapsed %v, want ≥ 1ms", d)
	}
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != int64(d) {
		t.Fatalf("snapshot count=%d sum=%d, want 1 observation of %d", s.Count, s.Sum, int64(d))
	}
}

// TestHistogramConcurrent hammers one histogram from many writers while a
// reader snapshots continuously: run under -race this is the lock-free
// claim's proof, and every mid-flight snapshot must still be internally
// sane (monotone percentiles bounded by max).
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const writers = 8
	const perWriter = 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(int64(1 + (i^w)%100000))
			}
		}(w)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			if s.P50 > s.P90 || s.P90 > s.P99 || s.P99 > s.Max {
				t.Errorf("mid-flight snapshot not monotone: %+v", s)
				return
			}
			if s.Count < 0 || s.Count > writers*perWriter {
				t.Errorf("mid-flight count %d out of range", s.Count)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("final count = %d, want %d", s.Count, writers*perWriter)
	}
}

// TestRegistryHistogramsAndGauges covers the registry plumbing the debug
// endpoint exports: named histogram identity, gauge sampling, and the
// ExportAll document.
func TestRegistryHistogramsAndGauges(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("op_ns")
	h2 := r.Histogram("op_ns")
	if h1 != h2 {
		t.Fatal("Histogram(name) must return the same histogram per name")
	}
	h1.Observe(42)
	val := int64(7)
	r.SetGauge("occupancy", func() int64 { return val })
	r.Counter("hits").Add(3)

	ex := r.ExportAll()
	if ex.Counters["hits"] != 3 {
		t.Errorf("exported counter = %d, want 3", ex.Counters["hits"])
	}
	if ex.Gauges["occupancy"] != 7 {
		t.Errorf("exported gauge = %d, want 7", ex.Gauges["occupancy"])
	}
	hs, ok := ex.Histograms["op_ns"]
	if !ok || hs.Count != 1 {
		t.Errorf("exported histogram = %+v ok=%v, want count 1", hs, ok)
	}
	val = 9
	if ex2 := r.ExportAll(); ex2.Gauges["occupancy"] != 9 {
		t.Errorf("gauge must re-sample on export, got %d", ex2.Gauges["occupancy"])
	}
	if GetHistogram("default_registry_hist") != GetHistogram("default_registry_hist") {
		t.Error("package-level GetHistogram must be stable per name")
	}
}

// TestHistogramObserveN: a value observed with weight n counts as n
// observations of it in count, sum and its bucket, and once in max.
func TestHistogramObserveN(t *testing.T) {
	var h Histogram
	h.ObserveN(100, 16)
	h.ObserveN(5000, 16)
	h.Observe(300)
	s := h.Snapshot()
	if s.Count != 33 || s.Sum != 16*100+16*5000+300 || s.Max != 5000 {
		t.Fatalf("count=%d sum=%d max=%d, want 33, %d, 5000", s.Count, s.Sum, s.Max, 16*100+16*5000+300)
	}
	b := h.BucketCounts()
	if b[bucketOf(100)] != 16 || b[bucketOf(5000)] != 16 || b[bucketOf(300)] != 1 {
		t.Fatalf("buckets %d/%d/%d, want 16/16/1", b[bucketOf(100)], b[bucketOf(5000)], b[bucketOf(300)])
	}
	// Half the weight is at 100, so p50 reports that bucket; p90 the slow one.
	if s.P50 < 100 || s.P50 >= 128 || s.P90 != 5000 {
		t.Errorf("p50=%d p90=%d, want [100, 128) and 5000", s.P50, s.P90)
	}
}
