package chunker

import (
	"io"

	"mhdedup/internal/rabin"
)

// FastRabin is the block-processed twin of Rabin — the same fingerprint,
// divisor test and cut points, bit-identical as the conformance harness
// proves — restructured as "scan the block, then apply Min and Max". Rabin
// resets its window at every cut and checks no position before len == Min ≥
// WindowSize, so the fingerprint at every position it does check is that of
// the WindowSize stream bytes ending there, whichever chunk they fall in:
// whether a position is a candidate cut depends on the stream alone.
// FastRabin lists the candidates of each block the reader reads in one pass
// (rabin.Window.Candidates, four windows side by side); Next is a cursor
// over the list. A cut still depends on nothing before its chunk, so
// re-chunking a stored region reproduces the in-stream cut points.
type FastRabin struct {
	p    Params
	mask rabin.Poly
	win  *rabin.Window
	src  *slabReader

	cands   []int // candidate cuts of the reader's current block, as indices into src.buf
	next    int   // first of cands not yet behind the current chunk's first checked byte
	scanned int64 // stream offset the last scan ended at (0: a fresh window holds the zeros before the stream)
}

// NewFastRabin returns a block-processed CDC chunker over r, cut-point
// identical to the per-byte Rabin reference with the same parameters.
func NewFastRabin(r io.Reader, p Params) (*FastRabin, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	win, err := rabin.NewWindow(p.Poly, p.WindowSize)
	if err != nil {
		return nil, err
	}
	return &FastRabin{p: p, mask: p.Mask(), win: win, src: newSlabReader(r, p.WindowSize)}, nil
}

// Next returns the next chunk, or io.EOF after the last one: the chunk ends
// at its first candidate of length ≥ Min, else at Max, else with the stream.
func (c *FastRabin) Next() (Chunk, error) {
	f := c.src
	if f.pos == f.n && !c.refill() {
		return Chunk{}, f.err
	}
	for {
		// In slab indices: the chunk's first checked byte (len == Min),
		// and one past its last possible one (len == Max).
		first := f.start + c.p.Min - 1
		end := f.start + c.p.Max
		for c.next < len(c.cands) && c.cands[c.next] < first {
			c.next++
		}
		if c.next < len(c.cands) && c.cands[c.next] < end {
			end = c.cands[c.next] + 1
		}
		if end <= f.n {
			return f.take(end), nil
		}
		f.pos = f.n
		if !c.refill() {
			return f.take(f.n), nil
		}
	}
}

// refill reads the next block into the drained reader, false at the end of
// the stream, and lists its candidates. The scan starts at the chunk's
// first checked byte — nothing before it can be a cut, of this chunk or a
// later one, so a reader that delivers less than Min per Read has those
// blocks skipped unrolled — and continues the last scan's window when it
// starts where that one ended.
func (c *FastRabin) refill() bool {
	f := c.src
	if !f.fill() {
		return false
	}
	c.cands, c.next = c.cands[:0], 0
	if from := max(f.pos, f.start+c.p.Min-1); from < f.n {
		at := f.off + int64(from-f.start) // stream offset of buf[from]
		c.cands = c.win.Candidates(c.cands, f.buf[:f.n], from, c.mask, at == c.scanned)
		c.scanned = at + int64(f.n-from)
	}
	return true
}
