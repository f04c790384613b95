package bloom

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"mhdedup/internal/hashutil"
)

func sumOf(i uint64) hashutil.Sum {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], i)
	return hashutil.SumBytes(b[:])
}

func TestNoFalseNegatives(t *testing.T) {
	f, err := New(1<<16, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10_000; i++ {
		f.Add(sumOf(i))
	}
	for i := uint64(0); i < 10_000; i++ {
		if !f.Test(sumOf(i)) {
			t.Fatalf("false negative for element %d", i)
		}
	}
}

func TestNoFalseNegativesProperty(t *testing.T) {
	f, err := New(1<<12, 4)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(data []byte) bool {
		h := hashutil.SumBytes(data)
		f.Add(h)
		return f.Test(h)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFalsePositiveRateNearPrediction(t *testing.T) {
	const n = 20_000
	// Sized for 1% at n: m = −n·ln(fp)/ln(2)² bits, k = m/n·ln(2).
	mBits := math.Ceil(-n * math.Log(0.01) / (math.Ln2 * math.Ln2))
	f, err := New(int(mBits/8)+1, int(math.Round(mBits/n*math.Ln2)))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		f.Add(sumOf(i))
	}
	fp := 0
	const trials = 50_000
	for i := uint64(n); i < n+trials; i++ {
		if f.Test(sumOf(i)) {
			fp++
		}
	}
	rate := float64(fp) / trials
	if rate > 0.03 {
		t.Errorf("measured FP rate %.4f, want near 0.01", rate)
	}
}

func TestEmptyFilterRejectsEverything(t *testing.T) {
	f, _ := New(1024, 5)
	for i := uint64(0); i < 1000; i++ {
		if f.Test(sumOf(i)) {
			t.Fatalf("empty filter claims membership for %d", i)
		}
	}
}

func TestStatsAndCount(t *testing.T) {
	f, _ := New(1<<14, 5)
	for i := uint64(0); i < 100; i++ {
		f.Add(sumOf(i))
	}
	for i := uint64(0); i < 200; i++ {
		f.Test(sumOf(i))
	}
	tested, hits := f.Stats()
	if tested != 200 {
		t.Errorf("tested = %d, want 200", tested)
	}
	if hits < 100 {
		t.Errorf("hits = %d, want >= 100 (no false negatives)", hits)
	}
}

func TestReset(t *testing.T) {
	f, _ := New(4096, 3)
	f.Add(sumOf(1))
	f.Reset()
	if f.Test(sumOf(1)) {
		t.Error("Reset did not clear the filter")
	}
	for i, w := range f.bits {
		if w != 0 {
			t.Errorf("Reset left set bits in word %d", i)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(0, 5); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := New(1024, 0); err == nil {
		t.Error("zero k accepted")
	}
	if _, err := New(1024, 33); err == nil {
		t.Error("k > 32 accepted")
	}
}

func TestSizeBytes(t *testing.T) {
	f, _ := New(100<<10, 5)
	if f.SizeBytes() < 100<<10 {
		t.Errorf("SizeBytes = %d, want >= %d", f.SizeBytes(), 100<<10)
	}
}

func BenchmarkAddTest(b *testing.B) {
	f, _ := New(1<<20, 5)
	for i := 0; i < b.N; i++ {
		h := sumOf(uint64(i))
		f.Add(h)
		f.Test(h)
	}
}
