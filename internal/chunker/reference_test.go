package chunker

// The per-byte reference chunkers. Rabin and FastCDC are the oracles the
// conformance harness, the golden cut vectors and the parity fuzzer hold the
// block-processed FastRabin and FastGear to; nothing outside these tests
// runs them.

import (
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

// FastCDC implements the gear-hash chunker of Xia et al. (USENIX ATC'16) —
// the successor to Rabin CDC that most modern deduplication systems
// (including post-2016 backup tools) adopted. It is included as a
// future-work extension to the paper's 2013-era toolbox: the gear hash
// needs one table lookup, one shift and one add per byte (no window
// bookkeeping), and normalized chunking uses a stricter mask before the
// target size and a looser one after, tightening the chunk-size
// distribution that plain Rabin leaves long-tailed.
//
// Like the other chunkers here, FastCDC resets its hash at every cut, so
// re-chunking a stored region reproduces the in-stream cut points.
type FastCDC struct {
	p          Params
	gear       [256]uint64
	maskStrict uint64
	maskLoose  uint64
	src        *readFiller
	off        int64
	done       bool
}

// NewFastCDC returns a FastCDC chunker over r with the given parameters.
// Params.Poly, when non-zero, seeds the gear table (the Rabin polynomial
// itself is not used — FastCDC has no polynomial arithmetic).
func NewFastCDC(r io.Reader, p Params) (*FastCDC, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &FastCDC{p: p, src: newReadFiller(r)}
	c.gear = gearTable(p)
	c.maskStrict, c.maskLoose = gearMasks(p)
	return c, nil
}

// Next returns the next chunk, or io.EOF after the last one.
func (c *FastCDC) Next() (Chunk, error) {
	if c.done {
		return Chunk{}, c.src.finalErr()
	}
	cur := make([]byte, 0, c.p.Max)
	var h uint64
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
		h = (h << 1) + c.gear[b]
		if len(cur) < c.p.Min {
			continue
		}
		mask := c.maskStrict
		if len(cur) >= c.p.ECS {
			mask = c.maskLoose
		}
		if h&mask == 0 || len(cur) >= c.p.Max {
			chunk := Chunk{Data: cur, Off: c.off}
			c.off += chunk.Size()
			return chunk, nil
		}
	}
}
