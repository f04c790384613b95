package chunker

import (
	"fmt"
	"io"
)

// Fixed is a fixed-size partitioning (FSP) chunker, the Venti/OceanStore
// approach the paper cites as the strawman that suffers the boundary-shift
// problem: a one-byte insertion changes every subsequent chunk. No engine
// cuts with it; it lives here to show that problem and to share the
// chunkers' error-path tests.
type Fixed struct {
	r    io.Reader
	size int
	off  int64
	err  error
}

// NewFixed returns a chunker that cuts r into size-byte chunks (the final
// chunk may be shorter).
func NewFixed(r io.Reader, size int) (*Fixed, error) {
	if size <= 0 {
		return nil, fmt.Errorf("chunker: fixed chunk size must be positive, got %d", size)
	}
	return &Fixed{r: r, size: size}, nil
}

// Next returns the next chunk, or io.EOF after the last one.
func (c *Fixed) Next() (Chunk, error) {
	if c.err != nil {
		return Chunk{}, c.err
	}
	buf := make([]byte, c.size)
	n, err := io.ReadFull(c.r, buf)
	if n > 0 {
		chunk := Chunk{Data: buf[:n:n], Off: c.off}
		c.off += int64(n)
		if err != nil {
			// A short read ending in EOF is the normal final chunk; any
			// other error must surface on the next call, not be masked as
			// end-of-stream.
			if err == io.ErrUnexpectedEOF || err == io.EOF {
				err = io.EOF
			}
			c.err = err
		}
		return chunk, nil
	}
	if err == io.ErrUnexpectedEOF || err == nil {
		err = io.EOF
	}
	c.err = err
	return Chunk{}, c.err
}
