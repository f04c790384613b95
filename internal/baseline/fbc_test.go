package baseline_test

import (
	"testing"

	"mhdedup/internal/algo"
	"mhdedup/internal/baseline"
	"mhdedup/internal/simdisk"
)

var _ algo.Deduplicator = (*baseline.FBC)(nil)

func TestFBCRoundTrip(t *testing.T) {
	base := randBytes(101, 300_000)
	edited := append([]byte(nil), base...)
	copy(edited[140_000:], randBytes(102, 8_000))
	files := map[string][]byte{
		"a": base,
		"b": append([]byte(nil), base...),
		"c": edited,
	}
	d, err := baseline.NewFBC(smallConfig(), simdisk.New())
	if err != nil {
		t.Fatal(err)
	}
	feed(t, d, files, []string{"a", "b", "c"})
	checkRestoreAll(t, "fbc", d, files)
	r := d.Report()
	checkBaselineInvariants(t, "fbc", r)
	if r.DupBytes < int64(len(base)) {
		t.Errorf("dup bytes = %d; the exact duplicate alone is %d", r.DupBytes, len(base))
	}
}

func TestFBCRechunksOnlyFrequentContent(t *testing.T) {
	// One shared region recurs in several otherwise-unique files. After it
	// has been seen a couple of times, the sketch marks its small chunks
	// frequent and FBC re-chunks big chunks containing it — so the shared
	// region deduplicates even though the surrounding big chunks differ.
	shared := randBytes(110, 40_000)
	mk := func(seed int64) []byte {
		out := append([]byte(nil), randBytes(seed, 80_000)...)
		out = append(out, shared...)
		out = append(out, randBytes(seed+500, 80_000)...)
		return out
	}
	files := map[string][]byte{}
	var order []string
	for i := int64(0); i < 5; i++ {
		name := string(rune('a' + i))
		files[name] = mk(200 + i)
		order = append(order, name)
	}
	d, err := baseline.NewFBC(smallConfig(), simdisk.New())
	if err != nil {
		t.Fatal(err)
	}
	feed(t, d, files, order)
	checkRestoreAll(t, "fbc", d, files)
	r := d.Report()
	// Later copies of the shared region must deduplicate at small-chunk
	// granularity: at least two recurrences' worth of bytes.
	if r.DupBytes < int64(len(shared))*2 {
		t.Errorf("dup bytes = %d, want >= %d: frequency-driven re-chunking failed",
			r.DupBytes, len(shared)*2)
	}
	// And re-chunking must have been selective: fewer small chunks than a
	// full re-chunk of everything would produce.
	full := r.InputBytes / int64(512)
	if r.ChunksIn >= full {
		t.Error("FBC re-chunked everything; it must be frequency-selective")
	}
}

func TestFBCCompletelyColdDataStaysCoarse(t *testing.T) {
	// All-unique input: nothing is frequent, so nothing is re-chunked —
	// chunk count stays at big-chunk granularity.
	d, err := baseline.NewFBC(smallConfig(), simdisk.New())
	if err != nil {
		t.Fatal(err)
	}
	content := randBytes(120, 400_000)
	feed(t, d, map[string][]byte{"u": content}, []string{"u"})
	r := d.Report()
	bigExpected := r.InputBytes/int64(512*4) + 2
	if r.ChunksIn > bigExpected*2 {
		t.Errorf("cold data produced %d chunks, expected about %d big chunks", r.ChunksIn, bigExpected)
	}
}

func TestFBCValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.FreqThreshold = 0
	if _, err := baseline.NewFBC(cfg, simdisk.New()); err == nil {
		t.Error("zero threshold accepted")
	}
	cfg = smallConfig()
	cfg.SketchWidth = 0
	if _, err := baseline.NewFBC(cfg, simdisk.New()); err == nil {
		t.Error("zero sketch width accepted")
	}
}
