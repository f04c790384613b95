package chunker

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"
)

func collectFast(t *testing.T, data []byte, p Params) []Chunk {
	t.Helper()
	c, err := NewFastCDC(bytes.NewReader(data), p)
	if err != nil {
		t.Fatal(err)
	}
	var out []Chunk
	for {
		ch, err := c.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ch)
	}
}

func TestFastCDCConcatenationInvariant(t *testing.T) {
	for _, n := range []int{0, 1, 1000, 1 << 18} {
		data := randomData(int64(n)+77, n)
		chunks := collectFast(t, data, Params{ECS: 1024})
		if !bytes.Equal(reassemble(chunks), data) {
			t.Fatalf("n=%d: reassembly failed", n)
		}
		checkOffsets(t, chunks)
	}
}

func TestFastCDCSizeBoundsAndMean(t *testing.T) {
	p := Params{ECS: 2048}
	data := randomData(81, 4<<20)
	chunks := collectFast(t, data, p)
	pd, _ := p.withDefaults()
	for i, c := range chunks {
		if len(c.Data) > pd.Max {
			t.Errorf("chunk %d over max", i)
		}
		if i < len(chunks)-1 && len(c.Data) < pd.Min {
			t.Errorf("chunk %d under min", i)
		}
	}
	mean := float64(len(data)) / float64(len(chunks))
	if mean < 1024 || mean > 4096 {
		t.Errorf("mean chunk size %.0f outside [ECS/2, 2·ECS]", mean)
	}
}

func TestFastCDCNormalizedDistributionTighterThanRabin(t *testing.T) {
	// Normalized chunking's selling point: smaller variance of chunk sizes
	// than single-mask Rabin at the same target size.
	data := randomData(83, 8<<20)
	p := Params{ECS: 2048}
	fast := collectFast(t, data, p)
	r, _ := NewRabin(bytes.NewReader(data), p)
	var rabinChunks []Chunk
	for {
		c, err := r.Next()
		if err != nil {
			break
		}
		rabinChunks = append(rabinChunks, c)
	}
	cv := func(chunks []Chunk) float64 {
		var sum, sq float64
		for _, c := range chunks {
			sum += float64(len(c.Data))
		}
		mean := sum / float64(len(chunks))
		for _, c := range chunks {
			d := float64(len(c.Data)) - mean
			sq += d * d
		}
		return math.Sqrt(sq/float64(len(chunks))) / mean
	}
	if cv(fast) >= cv(rabinChunks) {
		t.Errorf("FastCDC CV %.3f not tighter than Rabin's %.3f", cv(fast), cv(rabinChunks))
	}
}

func TestFastCDCBoundaryShiftResilience(t *testing.T) {
	data := randomData(85, 1<<19)
	shifted := append([]byte{0x13}, data...)
	set := map[string]bool{}
	for _, c := range collectFast(t, data, Params{ECS: 1024}) {
		set[string(c.Data)] = true
	}
	shared := 0
	chunks := collectFast(t, shifted, Params{ECS: 1024})
	for _, c := range chunks {
		if set[string(c.Data)] {
			shared++
		}
	}
	if shared < len(chunks)*3/4 {
		t.Errorf("only %d/%d chunks survive a 1-byte insert", shared, len(chunks))
	}
}

func TestFastCDCDeterministicAndSeedable(t *testing.T) {
	data := randomData(87, 1<<17)
	a := collectFast(t, data, Params{ECS: 1024})
	b := collectFast(t, data, Params{ECS: 1024})
	if len(a) != len(b) {
		t.Fatal("FastCDC not deterministic")
	}
	for i := range a {
		if !bytes.Equal(a[i].Data, b[i].Data) {
			t.Fatal("FastCDC not deterministic")
		}
	}
	// A different seed (via Poly) changes the cut points.
	c := collectFast(t, data, Params{ECS: 1024, Poly: 0x3DA3358B4DC175})
	same := len(a) == len(c)
	if same {
		for i := range a {
			if !bytes.Equal(a[i].Data, c[i].Data) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different gear seeds produced identical cuts")
	}
}

func TestFastCDCEmptyAndValidation(t *testing.T) {
	c, err := NewFastCDC(bytes.NewReader(nil), Params{ECS: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Next(); err != io.EOF {
		t.Errorf("empty input: %v", err)
	}
	if _, err := NewFastCDC(bytes.NewReader(nil), Params{}); err == nil {
		t.Error("zero params accepted")
	}
}

func BenchmarkFastCDCChunk1M(b *testing.B) {
	data := randomData(1, 1<<20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, _ := NewFastCDC(bytes.NewReader(data), Params{ECS: 4096})
		for {
			if _, err := c.Next(); err != nil {
				break
			}
		}
	}
}

func BenchmarkFastGearChunk1M(b *testing.B) {
	data := randomData(1, 1<<20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, _ := NewFastGear(bytes.NewReader(data), Params{ECS: 4096})
		for {
			if _, err := c.Next(); err != nil {
				break
			}
		}
	}
}

// BenchmarkFastRabinChunk1M times the service's chunker over 1 MiB for each
// reader shape: the whole stream per Read, and 1, 100, 1,460 (a TCP
// segment), 4,093 and 16 Ki bytes per Read. A block is what one Read
// delivers, so the shapes price the one-lane scan, the lane split's warm-up
// and the slab reader's per-Read cost against each other.
func BenchmarkFastRabinChunk1M(b *testing.B) {
	data := randomData(1, 1<<20)
	for _, per := range []int{0, 1, 100, 1460, 4093, 16 << 10} {
		name := "whole"
		if per > 0 {
			name = fmt.Sprintf("read=%d", per)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var r io.Reader = bytes.NewReader(data)
				if per > 0 {
					r = &sizedReader{data: data, max: per}
				}
				c, _ := NewFastRabin(r, Params{ECS: 4096})
				for {
					if _, err := c.Next(); err != nil {
						break
					}
				}
			}
		})
	}
}
