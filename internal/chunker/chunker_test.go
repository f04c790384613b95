package chunker

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomData(seed int64, n int) []byte {
	d := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(d)
	return d
}

func collect(t *testing.T, c Chunker) []Chunk {
	t.Helper()
	var out []Chunk
	for {
		ch, err := c.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if len(ch.Data) == 0 {
			t.Fatal("chunker emitted an empty chunk")
		}
		out = append(out, ch)
	}
}

func reassemble(chunks []Chunk) []byte {
	var buf bytes.Buffer
	for _, c := range chunks {
		buf.Write(c.Data)
	}
	return buf.Bytes()
}

func checkOffsets(t *testing.T, chunks []Chunk) {
	t.Helper()
	var off int64
	for i, c := range chunks {
		if c.Off != off {
			t.Fatalf("chunk %d: offset %d, want %d", i, c.Off, off)
		}
		off += c.Size()
	}
}

func TestRabinConcatenationInvariant(t *testing.T) {
	for _, n := range []int{0, 1, 100, 4096, 1 << 18} {
		data := randomData(int64(n)+1, n)
		c, err := NewRabin(bytes.NewReader(data), Params{ECS: 1024})
		if err != nil {
			t.Fatal(err)
		}
		chunks := collect(t, c)
		if got := reassemble(chunks); !bytes.Equal(got, data) {
			t.Fatalf("n=%d: reassembled %d bytes != input %d bytes", n, len(got), len(data))
		}
		checkOffsets(t, chunks)
	}
}

func TestRabinSizeBounds(t *testing.T) {
	p := Params{ECS: 1024}
	data := randomData(3, 1<<19)
	c, _ := NewRabin(bytes.NewReader(data), p)
	chunks := collect(t, c)
	pd, _ := p.withDefaults()
	for i, ch := range chunks {
		if len(ch.Data) > pd.Max {
			t.Errorf("chunk %d: size %d exceeds max %d", i, len(ch.Data), pd.Max)
		}
		if i < len(chunks)-1 && len(ch.Data) < pd.Min {
			t.Errorf("chunk %d: size %d below min %d (not final)", i, len(ch.Data), pd.Min)
		}
	}
}

func TestRabinMeanChunkSize(t *testing.T) {
	for _, ecs := range []int{512, 1024, 4096, 8192} {
		data := randomData(int64(ecs), 4<<20)
		c, _ := NewRabin(bytes.NewReader(data), Params{ECS: ecs})
		chunks := collect(t, c)
		mean := float64(len(data)) / float64(len(chunks))
		if mean < float64(ecs)/2 || mean > float64(ecs)*2 {
			t.Errorf("ECS=%d: mean chunk size %.0f outside [ECS/2, 2·ECS]", ecs, mean)
		}
	}
}

func TestRabinDeterminism(t *testing.T) {
	data := randomData(11, 1<<17)
	c1, _ := NewRabin(bytes.NewReader(data), Params{ECS: 2048})
	c2, _ := NewRabin(bytes.NewReader(data), Params{ECS: 2048})
	a, b := collect(t, c1), collect(t, c2)
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Data, b[i].Data) {
			t.Fatalf("chunk %d differs between runs", i)
		}
	}
}

func TestSplitMatchesStreaming(t *testing.T) {
	data := randomData(13, 1<<17)
	p := Params{ECS: 1024}
	c, _ := NewRabin(bytes.NewReader(data), p)
	streamed := collect(t, c)
	split, err := Split(data, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(split) {
		t.Fatalf("streamed %d chunks, Split %d", len(streamed), len(split))
	}
	for i := range split {
		if !bytes.Equal(streamed[i].Data, split[i].Data) || streamed[i].Off != split[i].Off {
			t.Fatalf("chunk %d differs between Split and streaming", i)
		}
	}
}

func TestRabinRechunkingReproducesCuts(t *testing.T) {
	// The property Bimodal/SubChunk re-chunking needs: small-chunking a
	// stored big chunk in isolation must reproduce the cuts that
	// small-chunking the stream from the big chunk's start produced.
	data := randomData(17, 1<<18)
	small := Params{ECS: 512}
	big := Params{ECS: 4096}
	bigChunks, _ := Split(data, big)
	for _, bc := range bigChunks[:3] {
		iso, _ := Split(bc.Data, small)
		inStream, _ := Split(data[bc.Off:bc.Off+bc.Size()], small)
		if len(iso) != len(inStream) {
			t.Fatalf("re-chunk count %d != in-stream count %d", len(iso), len(inStream))
		}
		for i := range iso {
			if !bytes.Equal(iso[i].Data, inStream[i].Data) {
				t.Fatalf("re-chunk cut %d differs", i)
			}
		}
	}
}

func TestRabinBoundaryShiftResilience(t *testing.T) {
	// Insert one byte near the front; most cut points downstream must
	// re-align, so the two chunk sets should share most chunk hashes. A
	// fixed-size chunker shares none (beyond luck).
	data := randomData(19, 1<<19)
	shifted := append([]byte{0x42}, data...)

	countShared := func(a, b []Chunk) int {
		set := map[string]bool{}
		for _, c := range a {
			set[string(c.Data)] = true
		}
		n := 0
		for _, c := range b {
			if set[string(c.Data)] {
				n++
			}
		}
		return n
	}

	p := Params{ECS: 1024}
	a, _ := Split(data, p)
	b, _ := Split(shifted, p)
	if shared := countShared(a, b); shared < len(a)*3/4 {
		t.Errorf("CDC: only %d/%d chunks survive a 1-byte insert", shared, len(a))
	}

	fa, _ := NewFixed(bytes.NewReader(data), 1024)
	fb, _ := NewFixed(bytes.NewReader(shifted), 1024)
	ca, cb := collect(t, fa), collect(t, fb)
	if shared := countShared(ca, cb); shared > len(ca)/10 {
		t.Errorf("fixed-size: %d/%d chunks survive — expected near-total loss", shared, len(ca))
	}
}

func TestTTTDConcatenationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed%100_000 + 1)
		if n < 0 {
			n = -n + 1
		}
		data := randomData(seed, n)
		c, err := NewTTTD(bytes.NewReader(data), Params{ECS: 1024})
		if err != nil {
			return false
		}
		var got []byte
		for {
			ch, err := c.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
			got = append(got, ch.Data...)
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTTTDForcedCutsUseBackup(t *testing.T) {
	// With a tight max, forced cuts are common; TTTD should then produce
	// some chunks strictly between Min and Max that plain Rabin would have
	// pushed to Max. Verify bounds and the concat invariant under heavy
	// carry use.
	data := randomData(23, 1<<18)
	p := Params{ECS: 1024, Min: 256, Max: 1536}
	c, err := NewTTTD(bytes.NewReader(data), p)
	if err != nil {
		t.Fatal(err)
	}
	chunks := collect(t, c)
	if !bytes.Equal(reassemble(chunks), data) {
		t.Fatal("TTTD with tight max loses bytes")
	}
	checkOffsets(t, chunks)
	for i, ch := range chunks {
		if len(ch.Data) > p.Max {
			t.Errorf("chunk %d exceeds max", i)
		}
		if i < len(chunks)-1 && len(ch.Data) < p.Min {
			t.Errorf("chunk %d below min", i)
		}
	}
}

func TestTTTDMeanChunkSize(t *testing.T) {
	data := randomData(29, 2<<20)
	c, _ := NewTTTD(bytes.NewReader(data), Params{ECS: 2048})
	chunks := collect(t, c)
	mean := float64(len(data)) / float64(len(chunks))
	if mean < 1024 || mean > 4096 {
		t.Errorf("TTTD mean chunk size %.0f outside [ECS/2, 2·ECS]", mean)
	}
}

func TestFixedChunker(t *testing.T) {
	data := randomData(31, 10_000)
	c, err := NewFixed(bytes.NewReader(data), 4096)
	if err != nil {
		t.Fatal(err)
	}
	chunks := collect(t, c)
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks, want 3", len(chunks))
	}
	if len(chunks[0].Data) != 4096 || len(chunks[1].Data) != 4096 || len(chunks[2].Data) != 10_000-8192 {
		t.Errorf("unexpected chunk sizes %d/%d/%d", len(chunks[0].Data), len(chunks[1].Data), len(chunks[2].Data))
	}
	if !bytes.Equal(reassemble(chunks), data) {
		t.Error("fixed chunks do not reassemble")
	}
	checkOffsets(t, chunks)
}

func TestFixedValidation(t *testing.T) {
	if _, err := NewFixed(bytes.NewReader(nil), 0); err == nil {
		t.Error("size 0 should be rejected")
	}
}

func TestEmptyInput(t *testing.T) {
	for _, mk := range []func() (Chunker, error){
		func() (Chunker, error) { return NewRabin(bytes.NewReader(nil), Params{ECS: 1024}) },
		func() (Chunker, error) { return NewTTTD(bytes.NewReader(nil), Params{ECS: 1024}) },
		func() (Chunker, error) { return NewFixed(bytes.NewReader(nil), 1024) },
	} {
		c, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Next(); err != io.EOF {
			t.Errorf("empty input: got %v, want io.EOF", err)
		}
		// And it must stay EOF.
		if _, err := c.Next(); err != io.EOF {
			t.Errorf("second Next after EOF: got %v, want io.EOF", err)
		}
	}
}

type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func TestReadErrorPropagates(t *testing.T) {
	boom := errors.New("disk on fire")
	c, _ := NewRabin(&failingReader{data: randomData(1, 500), err: boom}, Params{ECS: 1024})
	// Partial data may come out as a final chunk first; eventually the
	// error must surface instead of io.EOF.
	var sawErr error
	for i := 0; i < 10; i++ {
		_, err := c.Next()
		if err != nil {
			sawErr = err
			break
		}
	}
	if !errors.Is(sawErr, boom) {
		t.Errorf("got %v, want the reader's error", sawErr)
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{ECS: 0},
		{ECS: -5},
		{ECS: 1024, Min: 2048}, // min > ECS
		{ECS: 1024, Max: 512},  // max < ECS
		{ECS: 1024, Min: 16},   // min < window
		{ECS: 1024, Min: -1},   // negative
	}
	for _, p := range bad {
		if _, err := NewRabin(bytes.NewReader(nil), p); err == nil {
			t.Errorf("params %+v accepted, want error", p)
		}
	}
}

func TestMaskExpectedSize(t *testing.T) {
	p, _ := Params{ECS: 1024}.withDefaults()
	mask := p.Mask()
	// For ECS 1024, Min 256, the mask should encode a 2^k with k = 9
	// (ECS − Min = 768, floor log2 = 9).
	if mask != (1<<9)-1 {
		t.Errorf("mask = %#x, want %#x", uint64(mask), uint64((1<<9)-1))
	}
}

func BenchmarkRabinChunk1M(b *testing.B) {
	data := randomData(1, 1<<20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, _ := NewRabin(bytes.NewReader(data), Params{ECS: 4096})
		for {
			if _, err := c.Next(); err != nil {
				break
			}
		}
	}
}

func BenchmarkTTTDChunk1M(b *testing.B) {
	data := randomData(1, 1<<20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, _ := NewTTTD(bytes.NewReader(data), Params{ECS: 4096})
		for {
			if _, err := c.Next(); err != nil {
				break
			}
		}
	}
}
