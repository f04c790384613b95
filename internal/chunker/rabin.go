package chunker

import (
	"bytes"
	"io"

	"mhdedup/internal/rabin"
)

// Rabin is the basic LBFS-style content-defined chunker: cut where the
// window fingerprint, masked to k bits, equals the mask, with the chunk size
// clamped to [Min, Max].
type Rabin struct {
	p    Params
	mask rabin.Poly
	win  *rabin.Window
	src  *readFiller
	off  int64
	done bool
}

// NewRabin returns a CDC chunker over r with the given parameters.
func NewRabin(r io.Reader, p Params) (*Rabin, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	win, err := rabin.NewWindow(p.Poly, p.WindowSize)
	if err != nil {
		return nil, err
	}
	return &Rabin{p: p, mask: p.Mask(), win: win, src: newReadFiller(r)}, nil
}

// Next returns the next chunk, or io.EOF after the last one.
func (c *Rabin) Next() (Chunk, error) {
	if c.done {
		return Chunk{}, c.src.finalErr()
	}
	c.win.Reset()
	cur := make([]byte, 0, c.p.Max)
	for {
		b, ok := c.src.next()
		if !ok {
			c.done = true
			if len(cur) > 0 {
				chunk := Chunk{Data: cur, Off: c.off}
				c.off += chunk.Size()
				return chunk, nil
			}
			return Chunk{}, c.src.finalErr()
		}
		cur = append(cur, b)
		fp := c.win.Roll(b)
		if len(cur) >= c.p.Max || (len(cur) >= c.p.Min && fp&c.mask == c.mask) {
			chunk := Chunk{Data: cur, Off: c.off}
			c.off += chunk.Size()
			return chunk, nil
		}
	}
}

// Split divides data into CDC chunks in one call. Offsets are relative to
// data[0]. It is the re-chunking primitive used by Bimodal, SubChunk and
// HHR, and produces the same cuts as streaming the same bytes through
// NewRabin — it runs the block-processed FastRabin, which the conformance
// harness proves cut-point identical.
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
