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
// FastRabin lists the candidates of each block the filler reads in one pass
// (rabin.Window.Candidates, four windows side by side); Next is a cursor
// over the list. A cut still depends on nothing before its chunk, so
// re-chunking a stored region reproduces the in-stream cut points.
type FastRabin struct {
	p    Params
	mask rabin.Poly
	win  *rabin.Window
	src  *readFiller
	buf  arena
	off  int64

	cands   []int // candidate cuts of the filler's current block, as indices into src.buf
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
	return &FastRabin{p: p, mask: p.Mask(), win: win, src: newHistoryFiller(r, p.WindowSize)}, nil
}

// Next returns the next chunk, or io.EOF after the last one: the chunk ends
// at its first candidate of length ≥ Min, else at Max, else with the stream.
func (c *FastRabin) Next() (Chunk, error) {
	f := c.src
	if f.pos == f.n && !c.refill(0) {
		return Chunk{}, f.finalErr()
	}
	cur := c.buf.next(c.p.Max)
	for {
		// In buffer indices: the chunk's first checked byte (len == Min),
		// and one past its last possible one (len == Max).
		first := f.pos + c.p.Min - 1 - len(cur)
		end := f.pos + c.p.Max - len(cur)
		for c.next < len(c.cands) && c.cands[c.next] < first {
			c.next++
		}
		if c.next < len(c.cands) && c.cands[c.next] < end {
			end = c.cands[c.next] + 1
		}
		cut := end <= f.n
		end = min(end, f.n)
		cur = append(cur, f.buf[f.pos:end]...)
		f.pos = end
		if cut || !c.refill(len(cur)) {
			break
		}
	}
	chunk := Chunk{Data: c.buf.take(cur), Off: c.off}
	c.off += chunk.Size()
	return chunk, nil
}

// refill reads the next block into the drained filler, false at the end of
// the stream, and lists its candidates; base is the chunk index of its first
// byte. The scan starts at the chunk's first checked byte — nothing before
// it can be a cut, of this chunk or a later one, so a reader that delivers
// less than Min per Read has those blocks skipped unrolled — and continues
// the last scan's window when it starts where that one ended.
func (c *FastRabin) refill(base int) bool {
	f := c.src
	if !f.fill() {
		return false
	}
	c.cands, c.next = c.cands[:0], 0
	if from := f.pos + max(c.p.Min-1-base, 0); from < f.n {
		at := c.off + int64(base+from-f.pos) // stream offset of buf[from]
		c.cands = c.win.Candidates(c.cands, f.buf[:f.n], from, c.mask, at == c.scanned)
		c.scanned = at + int64(f.n-from)
	}
	return true
}
