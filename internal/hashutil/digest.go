package hashutil

import "encoding/binary"

// digest is SHA-1's running state for the SHA-NI kernel: the five chaining
// words, the bytes of a block not yet complete, and the message length.
// Whole blocks go to block straight from the caller's slice; only a tail
// shorter than 64 bytes is ever copied.
type digest struct {
	h   [5]uint32
	x   [64]byte
	nx  int
	len uint64
}

func (d *digest) reset() {
	d.h = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	d.nx, d.len = 0, 0
}

func (d *digest) write(p []byte) {
	d.len += uint64(len(p))
	if d.nx > 0 {
		n := copy(d.x[d.nx:], p)
		d.nx += n
		if d.nx < len(d.x) {
			return
		}
		block(&d.h, d.x[:])
		d.nx = 0
		p = p[n:]
	}
	if n := len(p) &^ 63; n > 0 {
		block(&d.h, p[:n])
		p = p[n:]
	}
	d.nx = copy(d.x[:], p)
}

// sum pads a copy of d, so d itself can keep being written to.
func (d *digest) sum() Sum {
	c := *d
	// FIPS 180-4 §5.1.1: a 1 bit, zeros up to 56 mod 64, the length in bits.
	var pad [64 + 8]byte
	pad[0] = 0x80
	n := (55-c.nx)&63 + 1
	binary.BigEndian.PutUint64(pad[n:], c.len<<3)
	c.write(pad[:n+8])
	var out Sum
	for i, w := range c.h {
		binary.BigEndian.PutUint32(out[4*i:], w)
	}
	return out
}
