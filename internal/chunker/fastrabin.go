package chunker

import (
	"io"

	"mhdedup/internal/rabin"
)

// FastRabin is the block-processed twin of Rabin: the same sliding-window
// fingerprint, the same divisor test, the same cut points — bit-identical,
// as the conformance harness proves — restructured so the inner loop runs
// over buffered []byte slices with the slide tables hoisted into locals
// (rabin.Window.RollBlock/RollFind) instead of one readFiller.next() plus
// one Roll method call per byte.
//
// The skip-ahead mirrors FastGear's: the fingerprint at any position is a
// function of the last WindowSize bytes only, and Params validation
// guarantees Min ≥ WindowSize, so the window starts rolling at chunk index
// Min−WindowSize — everything before is copied, never hashed — and is
// exactly warm at the first checked position (len == Min).
//
// Like Rabin, the window resets at every cut, so re-chunking a stored
// region reproduces the in-stream cut points.
type FastRabin struct {
	p    Params
	mask rabin.Poly
	win  *rabin.Window
	src  *readFiller
	buf  arena
	off  int64
	done bool
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
	return &FastRabin{p: p, mask: p.Mask(), win: win, src: newReadFiller(r)}, nil
}

// Next returns the next chunk, or io.EOF after the last one.
func (c *FastRabin) Next() (Chunk, error) {
	if c.done {
		return Chunk{}, c.src.finalErr()
	}
	min, max := c.p.Min, c.p.Max
	rollFrom := min - c.win.Size() // ≥ 0: Params validation enforces Min ≥ WindowSize
	c.win.Reset()
	cur := c.buf.next(max)
	for {
		blk := c.src.peek()
		if len(blk) == 0 {
			c.done = true
			if len(cur) > 0 {
				chunk := Chunk{Data: c.buf.take(cur), Off: c.off}
				c.off += chunk.Size()
				return chunk, nil
			}
			return Chunk{}, c.src.finalErr()
		}
		base := len(cur) // chunk index of blk[0]
		limit := len(blk)
		if base+limit > max { // cap at the forced-cut boundary
			limit = max - base
		}
		i := 0
		cut := -1
		// Region 1 — skip: bytes before the window warm-up need no hashing.
		if base < rollFrom {
			i = rollFrom - base
			if i > limit {
				i = limit
			}
		}
		// Region 2 — warm-up: roll without testing (positions len < Min).
		if end := min - 1 - base; i < end {
			if end > limit {
				end = limit
			}
			c.win.RollBlock(blk[i:end])
			i = end
		}
		// Region 3 — search: roll with the divisor test, up to the Max cap.
		if i < limit {
			n, found := c.win.RollFind(blk[i:limit], c.mask)
			i += n
			if found {
				cut = i
			}
		}
		consumed := limit
		if cut >= 0 {
			consumed = cut
		}
		cur = append(cur, blk[:consumed]...)
		c.src.consume(consumed)
		if cut >= 0 || len(cur) >= max {
			chunk := Chunk{Data: c.buf.take(cur), Off: c.off}
			c.off += chunk.Size()
			return chunk, nil
		}
	}
}
