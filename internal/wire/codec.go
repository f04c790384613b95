package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mhdedup/internal/hashutil"
)

// Limits on variable-length message fields, enforced by the decoders so a
// hostile peer cannot make a small frame allocate a large structure.
const (
	// MaxNameLen bounds file and algorithm names.
	MaxNameLen = 4096
	// MaxBatchChunks bounds the chunks of one Offer/Need/ChunkData batch.
	MaxBatchChunks = 1 << 16
	// MaxListNames bounds one ListResp.
	MaxListNames = 1 << 20
	// MaxStatNames bounds one FileStat batch.
	MaxStatNames = 1 << 16
)

// ErrTruncated reports a payload shorter than its grammar requires.
var ErrTruncated = errors.New("wire: truncated message payload")

// ErrTrailing reports payload bytes after the end of the message grammar.
var ErrTrailing = errors.New("wire: trailing bytes after message payload")

// ErrFieldRange reports a length or count field outside its allowed range.
var ErrFieldRange = errors.New("wire: message field out of range")

// op is what a codec does with the fields it is walked over.
type op uint8

const (
	sizing   op = iota // add up the payload's length
	encoding           // append each field to buf
	decoding           // read each field from buf
)

// codec runs a message's fields method, the one place its grammar is
// written: a walk over pointers to its fields in wire order. The same walk
// sizes the payload, encodes it into a buffer of exactly that size, and
// decodes it; a decode latches its first failure and every later field is a
// no-op. Every field is a static call on a codec that lives on its caller's
// stack, so a walk allocates nothing but the payload (encoding) or the
// slices and strings it decodes.
type codec struct {
	op  op
	n   int    // sizing: the payload length so far
	buf []byte // encoding: the payload so far; decoding: the bytes not yet read
	err error  // decoding: the first failure
}

// encoder returns the codec that encodes the payload c has sized.
func (c *codec) encoder() *codec { return &codec{op: encoding, buf: make([]byte, 0, c.n)} }

// decoder returns the codec that decodes payload p.
func decoder(p []byte) *codec { return &codec{op: decoding, buf: p} }

// done ends a decode: its first failure, or ErrTrailing if bytes are left.
func (c *codec) done() error {
	if c.err == nil && len(c.buf) > 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(c.buf))
	}
	return c.err
}

// next returns the next n bytes of a decode, or nil once it has failed.
func (c *codec) next(n int) []byte {
	if c.err == nil && uint(n) > uint(len(c.buf)) {
		c.err = ErrTruncated
	}
	if c.err != nil {
		return nil
	}
	b := c.buf[:n:n]
	c.buf = c.buf[n:]
	return b
}

// raw walks len(p) bytes carried as they are: appended from p when
// encoding, copied into p when decoding.
func (c *codec) raw(p []byte) *codec {
	switch c.op {
	case sizing:
		c.n += len(p)
	case encoding:
		c.buf = append(c.buf, p...)
	default:
		copy(p, c.next(len(p)))
	}
	return c
}

func (c *codec) u8(v *uint8) *codec {
	b := [1]byte{*v}
	if c.raw(b[:]).op == decoding {
		*v = b[0]
	}
	return c
}

func (c *codec) u16(v *uint16) *codec {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], *v)
	if c.raw(b[:]).op == decoding {
		*v = binary.BigEndian.Uint16(b[:])
	}
	return c
}

func (c *codec) u32(v *uint32) *codec {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], *v)
	if c.raw(b[:]).op == decoding {
		*v = binary.BigEndian.Uint32(b[:])
	}
	return c
}

func (c *codec) u64(v *uint64) *codec {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], *v)
	if c.raw(b[:]).op == decoding {
		*v = binary.BigEndian.Uint64(b[:])
	}
	return c
}

func (c *codec) hash(h *hashutil.Sum) *codec { return c.raw(h[:]) }

// bool walks a strict boolean byte: only 0 and 1 decode, so every accepted
// payload re-encodes byte for byte (the invariant the decode fuzzers pin).
func (c *codec) bool(v *bool) *codec {
	var b uint8
	if *v {
		b = 1
	}
	c.u8(&b).refuse(b > 1, "boolean byte above 1")
	if c.op == decoding {
		*v = b == 1
	}
	return c
}

// str walks a u16-length-prefixed string of at most MaxNameLen bytes.
func (c *codec) str(s *string) *codec {
	n := uint16(len(*s))
	switch c.u16(&n).op {
	case sizing:
		c.n += len(*s)
	case encoding:
		c.buf = append(c.buf, *s...)
	default:
		if n > MaxNameLen && c.err == nil {
			c.err = fmt.Errorf("%w: string length %d > %d", ErrFieldRange, n, MaxNameLen)
		}
		*s = string(c.next(int(n)))
	}
	return c
}

// blob walks a u32-length-prefixed byte run. A decoded run aliases the
// payload; a caller that keeps it past the frame must copy it.
func (c *codec) blob(p *[]byte) *codec {
	n := uint32(len(*p))
	switch c.u32(&n).op {
	case sizing:
		c.n += len(*p)
	case encoding:
		c.buf = append(c.buf, *p...)
	default:
		*p = c.next(int(n))
	}
	return c
}

// version walks a grammar's version byte: v is written, and any other value
// is refused on decode.
func (c *codec) version(v uint8, msg string) *codec {
	got := v
	if c.u8(&got); got != v {
		c.err = fmt.Errorf("wire: %s version %d not supported", msg, got)
	}
	return c
}

// refuse fails a decode whose fields read well but say what no peer may
// send. Encoding and sizing ignore it.
func (c *codec) refuse(bad bool, what string) *codec {
	if bad && c.op == decoding && c.err == nil {
		c.err = fmt.Errorf("%w: %s", ErrFieldRange, what)
	}
	return c
}

// count walks the u32 length n of a list. On decode it returns the length
// read, checked against max and against the bytes left — each element takes
// at least min of them — so a hostile count cannot make a small payload
// allocate a large list; 0 once the decode has failed.
func (c *codec) count(n int, max uint32, min int) int {
	v := uint32(n)
	switch {
	case c.u32(&v).op != decoding:
		return n
	case c.err != nil:
	case v > max:
		c.err = fmt.Errorf("%w: count %d > %d", ErrFieldRange, v, max)
	case uint64(v)*uint64(min) > uint64(len(c.buf)):
		c.err = ErrTruncated
	default:
		return int(v)
	}
	return 0
}

// The list walkers: a count, then the elements. A decode makes the list.

func (c *codec) entries(s *[]OfferEntry) *codec {
	if n := c.count(len(*s), MaxBatchChunks, hashutil.Size+4); c.op == decoding {
		*s = make([]OfferEntry, n)
	}
	for i := range *s {
		c.hash(&(*s)[i].Hash).u32(&(*s)[i].Size)
	}
	return c
}

func (c *codec) u32s(s *[]uint32) *codec {
	if n := c.count(len(*s), MaxBatchChunks, 4); c.op == decoding {
		*s = make([]uint32, n)
	}
	for i := range *s {
		c.u32(&(*s)[i])
	}
	return c
}

func (c *codec) blobs(s *[][]byte) *codec {
	if n := c.count(len(*s), MaxBatchChunks, 4); c.op == decoding {
		*s = make([][]byte, n)
	}
	for i := range *s {
		c.blob(&(*s)[i])
	}
	return c
}

func (c *codec) strs(s *[]string, max uint32) *codec {
	if n := c.count(len(*s), max, 2); c.op == decoding {
		*s = make([]string, n)
	}
	for i := range *s {
		c.str(&(*s)[i])
	}
	return c
}

func (c *codec) bools(s *[]bool) *codec {
	if n := c.count(len(*s), MaxStatNames, 1); c.op == decoding {
		*s = make([]bool, n)
	}
	for i := range *s {
		c.bool(&(*s)[i])
	}
	return c
}
