package chunker

import (
	"io"

	"mhdedup/internal/rabin"
)

// TTTD is the "two thresholds, two divisors" chunker. In addition to the
// main divisor (the Rabin chunker's mask), a more permissive backup divisor
// — one bit shorter, so twice as likely to match — records candidate cut
// points. When a chunk reaches the maximum size without a main-divisor
// match, it is cut at the most recent backup candidate instead of at the
// arbitrary max boundary, keeping even forced cuts content-defined.
type TTTD struct {
	p        Params
	mainMask rabin.Poly
	backMask rabin.Poly
	win      *rabin.Window
	src      *slabReader
}

// NewTTTD returns a TTTD chunker over r.
func NewTTTD(r io.Reader, p Params) (*TTTD, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	win, err := rabin.NewWindow(p.Poly, p.WindowSize)
	if err != nil {
		return nil, err
	}
	main := p.Mask()
	return &TTTD{
		p:        p,
		mainMask: main,
		backMask: main >> 1,
		win:      win,
		src:      newSlabReader(r, 0),
	}, nil
}

// Next returns the next chunk, or io.EOF after the last one. A chunk cut
// at a backup candidate leaves the bytes scanned past it in the slab, where
// the next chunk rolls them again through its fresh window.
func (c *TTTD) Next() (Chunk, error) {
	f := c.src
	c.win.Reset()
	backup := 0 // chunk length at the latest backup cut candidate
	for {
		if f.pos == f.n && !f.fill() {
			if f.pos > f.start {
				return f.take(f.pos), nil
			}
			return Chunk{}, f.err
		}
		fp := c.win.Roll(f.buf[f.pos])
		f.pos++
		n := f.pos - f.start
		if n < c.p.Min {
			continue
		}
		if fp&c.mainMask == c.mainMask {
			return f.take(f.pos), nil
		}
		if fp&c.backMask == c.backMask {
			backup = n
		}
		if n >= c.p.Max {
			if backup > 0 {
				return f.take(f.start + backup), nil
			}
			return f.take(f.pos), nil
		}
	}
}
