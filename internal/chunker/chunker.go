// Package chunker divides byte streams into chunks.
//
// Two chunkers are provided:
//
//   - Rabin: content-defined chunking (CDC) as in LBFS — a sliding-window
//     Rabin fingerprint is computed at every byte and a cut point is declared
//     where the fingerprint matches a mask, subject to minimum and maximum
//     chunk sizes. This is the basic chunking algorithm of the paper and of
//     all its baselines.
//   - TTTD: the "two thresholds, two divisors" refinement (Eshghi & Tang,
//     HPL-2005-30): a second, more permissive divisor records backup cut
//     candidates so that chunks forced out at the maximum size still end at
//     a content-defined position.
//
// Fixed-size partitioning (FSP) as in Venti, the boundary-shift strawman,
// lives in the tests (fixed_test.go).
//
// All chunkers reset their rolling window at each emitted cut. This makes
// chunking self-contained per chunk: re-chunking a stored big chunk in
// isolation reproduces exactly the cut points that small-chunking the stream
// from the big chunk's start would have produced — the property Bimodal and
// SubChunk re-chunking relies on.
package chunker

import (
	"bytes"
	"fmt"
	"io"
	"math/bits"

	"mhdedup/internal/rabin"
)

// Chunk is one chunk of a stream. Data is owned by the caller once returned;
// chunkers never reuse returned buffers. Data is a view of the slab the
// stream was read into (up to slabMax bytes, shared with the neighbouring
// chunks), clipped to cap == len so an append to it reallocates instead of
// reaching the next chunk. A retained chunk keeps its whole slab reachable,
// whatever its own length: holders that outlive the file it came from
// should copy, and Gather copies what a container would store of a slab it
// mostly does not.
type Chunk struct {
	Data []byte
	Off  int64 // offset of Data[0] within the stream

	slab []byte // the slab Data is slab[at:at+len(Data)] of; nil if none
	at   int
}

// Size returns len(Data) as an int64 for offset arithmetic.
func (c Chunk) Size() int64 { return int64(len(c.Data)) }

// Chunker produces consecutive chunks of a stream. Next returns io.EOF after
// the final chunk. Implementations are not safe for concurrent use.
type Chunker interface {
	Next() (Chunk, error)
}

// Params configures a content-defined chunker.
type Params struct {
	// ECS is the expected chunk size in bytes — the paper's basic knob. The
	// achieved mean is approximately Min + 2^k clipped by Max, where k is
	// chosen as log2(ECS − Min); see Mask.
	ECS int

	// Min and Max bound the chunk size. Zero values default to ECS/4 and
	// ECS*4 respectively, the conventional CDC configuration.
	Min, Max int

	// Poly is the Rabin modulus; zero defaults to rabin.DefaultPoly.
	Poly rabin.Poly

	// WindowSize is the sliding-window width; zero defaults to
	// rabin.DefaultWindowSize.
	WindowSize int
}

// withDefaults returns p with zero fields filled in and validates it.
func (p Params) withDefaults() (Params, error) {
	if p.ECS <= 0 {
		return p, fmt.Errorf("chunker: ECS must be positive, got %d", p.ECS)
	}
	if p.Min == 0 {
		p.Min = p.ECS / 4
	}
	if p.Max == 0 {
		p.Max = p.ECS * 4
	}
	if p.Min <= 0 || p.Min > p.ECS {
		return p, fmt.Errorf("chunker: Min %d out of range (0, ECS=%d]", p.Min, p.ECS)
	}
	if p.Max < p.ECS {
		return p, fmt.Errorf("chunker: Max %d below ECS %d", p.Max, p.ECS)
	}
	if p.Poly == 0 {
		p.Poly = rabin.DefaultPoly
	}
	if p.WindowSize == 0 {
		p.WindowSize = rabin.DefaultWindowSize
	}
	if p.Min < p.WindowSize {
		return p, fmt.Errorf("chunker: Min %d smaller than window size %d", p.Min, p.WindowSize)
	}
	return p, nil
}

// Bounds returns the sizes p cuts within: no chunk is longer than max, and
// only a stream's last chunk may be shorter than min.
func (p Params) Bounds() (min, max int, err error) {
	p, err = p.withDefaults()
	return p.Min, p.Max, err
}

// Mask returns the cut-point mask for p: k low bits set, where 2^k is the
// expected distance from Min to the cut so that the mean chunk size is close
// to ECS.
func (p Params) Mask() rabin.Poly {
	target := p.ECS - p.Min
	if target < 2 {
		target = 2
	}
	k := bits.Len(uint(target)) - 1
	return rabin.Poly(1)<<uint(k) - 1
}

// Slab sizes of the slab reader: a stream's first slab is slabMin, so a
// small file does not pay for a large one, and each further slab doubles up
// to slabMax — or to twice what moves into it, if that is more.
const (
	slabMin = 64 << 10
	slabMax = 1 << 20
)

// fillSize bounds one Read; maxEmptyReads is how many consecutive (0, nil)
// reads it takes before the reader is given up with io.ErrNoProgress —
// bufio's bound: retried for ever they would spin a chunker inside Next,
// where no cancellation reaches it.
const (
	fillSize      = 64 << 10
	maxEmptyReads = 100
)

// slabReader reads a stream straight into slabs that are never reused, and
// the chunkers return their chunks as views of them: the Read is the one
// copy a stream's bytes get. buf[start:pos] is the chunk being cut,
// buf[pos:n] what was read and not yet scanned, and the hist bytes before
// pos are always the stream's bytes before them (zeros before its first),
// which lets FastRabin roll a window into a block from in front. Only a
// full slab is left behind: the next one starts with the unfinished chunk
// and that history, the only bytes ever moved — once per slab, however
// little a Read delivers.
type slabReader struct {
	r     io.Reader
	buf   []byte // the current slab; no byte of it before n is written again
	hist  int    // bytes of history kept in front of pos
	start int    // first byte of the chunk being cut
	pos   int    // next unscanned byte
	n     int    // bytes read into buf
	off   int64  // stream offset of buf[start]
	err   error  // sticky: io.EOF, the reader's error or io.ErrNoProgress
}

// newSlabReader starts with a full "slab" of hist zeros, so the first fill
// sizes the first real one like any other.
func newSlabReader(r io.Reader, hist int) *slabReader {
	return &slabReader{r: r, buf: make([]byte, hist), hist: hist, start: hist, pos: hist, n: hist}
}

// fill reads the next block, buf[pos:n], once the last is scanned (pos ==
// n); false means the stream ended, and err is io.EOF or why it failed:
// what Next returns from then on.
func (f *slabReader) fill() bool {
	if f.err != nil {
		return false
	}
	if f.n == len(f.buf) {
		from := min(f.start, f.n-f.hist)
		moved := f.buf[from:f.n]
		size := max(min(2*len(f.buf), slabMax), slabMin, 2*len(moved))
		f.buf = make([]byte, size)
		f.n = copy(f.buf, moved)
		f.start, f.pos = f.start-from, f.pos-from
	}
	for empty := 0; empty < maxEmptyReads; empty++ {
		n, err := f.r.Read(f.buf[f.n:min(len(f.buf), f.n+fillSize)])
		f.n += n
		f.err = err
		if n > 0 || err != nil {
			return n > 0
		}
	}
	f.err = io.ErrNoProgress
	return false
}

// take ends the chunk being cut at end (≤ n) and returns it clipped; the
// next chunk, and the scan, start there.
func (f *slabReader) take(end int) Chunk {
	c := Chunk{Data: f.buf[f.start:end:end], Off: f.off, slab: f.buf, at: f.start}
	f.off += c.Size()
	f.start, f.pos = end, end
	return c
}

// Gather lists the chunks one container stores, in order, as runs of the
// slabs they are views of: a chunk that continues its predecessor in the
// same slab extends its run. The zero value is empty.
type Gather struct {
	runs []Chunk // each a run: Data spans the chunks it merged
}

// Add appends c's bytes.
func (g *Gather) Add(c Chunk) {
	if n := len(g.runs); n > 0 && c.slab != nil {
		if last := &g.runs[n-1]; last.slab != nil && &last.slab[0] == &c.slab[0] && last.at+len(last.Data) == c.at {
			end := c.at + len(c.Data)
			last.Data = last.slab[last.at:end:end]
			return
		}
	}
	g.runs = append(g.runs, c)
}

// Runs returns the container's bytes as views, in order, except where a
// view would keep mostly unstored bytes reachable: the runs of a slab the
// container stores less than half of are copied — back-to-back ones into
// one exact-size buffer — so a kept slab holds at most one other byte per
// stored byte. Chunks cut elsewhere are copied too: each is its own
// allocation (a wire frame's, for a shard), so as views they would stay
// one run per chunk, and every restore would pay for gathering them.
func (g *Gather) Runs() [][]byte {
	used := make(map[*byte]int)
	for _, c := range g.runs {
		if c.slab != nil {
			used[&c.slab[0]] += len(c.Data)
		}
	}
	keep := func(c Chunk) bool { return c.slab != nil && 2*used[&c.slab[0]] >= len(c.slab) }
	var out, copied [][]byte
	for i, c := range g.runs {
		if keep(c) {
			out = append(out, c.Data)
		} else {
			copied = append(copied, c.Data)
		}
		if len(copied) > 0 && (i+1 == len(g.runs) || keep(g.runs[i+1])) {
			out, copied = append(out, bytes.Join(copied, nil)), copied[:0]
		}
	}
	return out
}

// NewCDC returns the LBFS Rabin content-defined chunker over r — the
// block-processed FastRabin. Its per-byte reference emits bit-identical
// chunks and lives with the conformance harness, the golden vectors and the
// parity fuzzer that hold it to them (reference_test.go).
func NewCDC(r io.Reader, p Params) (Chunker, error) { return NewFastRabin(r, p) }

// NewGear returns the gear-hash (FastCDC-algorithm) chunker over r — the
// block-processed FastGear, whose per-byte reference lives there too.
func NewGear(r io.Reader, p Params) (Chunker, error) { return NewFastGear(r, p) }

// Split divides data into CDC chunks in one call. Offsets are relative to
// data[0]. It is the re-chunking primitive used by Bimodal, SubChunk and
// HHR, and produces the same cuts as streaming the same bytes through
// NewCDC: it runs the block-processed FastRabin, which the conformance
// harness proves cut-point identical to the per-byte reference.
func Split(data []byte, p Params) ([]Chunk, error) {
	c, err := NewCDC(bytes.NewReader(data), p)
	if err != nil {
		return nil, err
	}
	var out []Chunk
	for {
		ch, err := c.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, ch)
	}
}

// New returns the content-defined chunker an engine configuration selects:
// TTTD, gear, or by default Rabin CDC. The engine and every client cutting
// on its behalf build theirs here, so equal parameters mean equal cuts.
func New(r io.Reader, p Params, tttd, gear bool) (Chunker, error) {
	switch {
	case tttd:
		return NewTTTD(r, p)
	case gear:
		return NewGear(r, p)
	default:
		return NewCDC(r, p)
	}
}
