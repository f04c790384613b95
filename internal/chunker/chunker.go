// Package chunker divides byte streams into chunks.
//
// Three chunkers are provided:
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
//   - Fixed: fixed-size partitioning (FSP) as in Venti — the boundary-shift
//     strawman.
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
// chunkers never reuse returned buffers. The block-processed chunkers
// (FastRabin, FastGear) carve Data out of a slab shared with the stream's
// neighbouring chunks and return it capacity-clipped (cap == len), so an
// append to it reallocates instead of reaching the next chunk — but a
// retained chunk keeps its whole slab (up to slabMax bytes) reachable:
// holders that outlive the file they came from should copy.
type Chunk struct {
	Data []byte
	Off  int64 // offset of Data[0] within the stream
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

// Slab sizes of the chunk arena: the first slab of a stream is slabMin (or
// one maximal chunk, if larger) so a small file does not pay for a large
// one, and each further slab doubles up to slabMax.
const (
	slabMin = 64 << 10
	slabMax = 1 << 20
)

// arena hands out chunk buffers carved from shared slabs, so that a chunk
// costs its own length, not a zeroed Max-sized allocation. No byte of a
// slab is handed out twice, so returned chunks are never overwritten.
type arena struct {
	free []byte // unused tail of the current slab
	size int    // capacity of the current slab
}

// next returns an empty buffer with room for a chunk of up to n bytes.
func (a *arena) next(n int) []byte {
	if len(a.free) < n {
		a.size = max(min(2*a.size, slabMax), slabMin, n)
		a.free = make([]byte, a.size)
	}
	return a.free[:0:n]
}

// take finishes the chunk built in the buffer next returned: the arena
// moves past it and the chunk comes back clipped to its length.
func (a *arena) take(cur []byte) []byte {
	a.free = a.free[len(cur):]
	return cur[:len(cur):len(cur)]
}

// fillSize is how many bytes a readFiller buffers behind its history;
// maxEmptyReads how many consecutive (0, nil) reads it takes before giving
// the reader up with io.ErrNoProgress — bufio's bound: retried for ever they
// would spin a chunker inside Next, where no cancellation reaches it.
const (
	fillSize      = 64 << 10
	maxEmptyReads = 100
)

// readFiller pulls bytes from an io.Reader into chunker buffers, tracking a
// sticky error. The unread bytes are buf[pos:n]; the hist bytes before pos
// are always the stream's bytes before them (zeros before its first byte),
// which is what lets FastRabin roll a window into a block from in front.
type readFiller struct {
	r    io.Reader
	buf  []byte
	hist int // bytes of history kept in front of pos
	pos  int // next unread byte in buf
	n    int // valid bytes in buf
	err  error
}

func newReadFiller(r io.Reader) *readFiller { return newHistoryFiller(r, 0) }

func newHistoryFiller(r io.Reader, hist int) *readFiller {
	return &readFiller{r: r, buf: make([]byte, hist+fillSize), hist: hist, pos: hist, n: hist}
}

// next returns the next byte. ok is false when the stream is exhausted or
// failed; check finalErr afterwards.
func (f *readFiller) next() (byte, bool) {
	blk := f.peek()
	if len(blk) == 0 {
		return 0, false
	}
	f.pos++
	return blk[0], true
}

// peek returns the unread buffered bytes, refilling from the reader when the
// buffer is drained. An empty result means the stream is exhausted or
// failed; check finalErr afterwards. The returned slice is valid until the
// next peek and is released by advancing pos — the block-processed chunkers
// scan it in place and copy out only the bytes of the chunk they emit.
func (f *readFiller) peek() []byte {
	if f.pos >= f.n && !f.fill() {
		return nil
	}
	return f.buf[f.pos:f.n]
}

// fill reads the next block, buf[pos:n], into a drained buffer; false means
// the stream is exhausted or failed. The block goes behind the bytes already
// consumed while there is room, so they are its history where they lie; only
// a full buffer starts over, its last hist bytes moved to the front — once
// per fillSize bytes, not once per Read, however little a Read delivers.
func (f *readFiller) fill() bool {
	if f.err != nil {
		return false
	}
	if f.n == len(f.buf) {
		copy(f.buf, f.buf[f.n-f.hist:])
		f.pos, f.n = f.hist, f.hist
	}
	for empty := 0; empty < maxEmptyReads; empty++ {
		n, err := f.r.Read(f.buf[f.n:])
		f.n += n
		f.err = err
		if n > 0 || err != nil {
			return n > 0
		}
	}
	f.err = io.ErrNoProgress
	return false
}

// finalErr converts the sticky error for Next: io.EOF stays io.EOF, other
// errors pass through, nil means still readable.
func (f *readFiller) finalErr() error {
	if f.err == nil || f.err == io.EOF {
		return io.EOF
	}
	return f.err
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
