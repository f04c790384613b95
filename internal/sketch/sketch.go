// Package sketch implements a count-min sketch — the sublinear frequency
// estimator behind the FBC (frequency-based chunking) baseline. FBC needs
// "frequency information of chunks estimated from data that have been
// previously processed" (the paper's §II summary of Lu et al.); a count-min
// sketch provides an always-overestimating count in constant space and
// time, which is exactly the shape FBC's re-chunking decision needs: a
// chunk whose estimate is below the threshold is certainly infrequent.
package sketch

import (
	"encoding/binary"
	"fmt"

	"mhdedup/internal/hashutil"
)

// CountMin is a count-min sketch over hashutil.Sum keys. The zero value is
// not usable; construct with New.
type CountMin struct {
	rows  int
	width uint64
	cells []uint32
}

// New returns a sketch with the given number of rows (hash functions) and
// counters per row. Standard sizing: width = ⌈e/ε⌉ for additive error
// ε·N, rows = ⌈ln(1/δ)⌉ for confidence 1−δ.
func New(rows, width int) (*CountMin, error) {
	if rows <= 0 || rows > 16 {
		return nil, fmt.Errorf("sketch: rows must be in [1,16], got %d", rows)
	}
	if width <= 0 {
		return nil, fmt.Errorf("sketch: width must be positive, got %d", width)
	}
	return &CountMin{
		rows:  rows,
		width: uint64(width),
		cells: make([]uint32, rows*width),
	}, nil
}

// positions derives the per-row cell indices from the key via double
// hashing on two words of the (already uniform) content hash.
func (c *CountMin) position(row int, key hashutil.Sum) int {
	h1 := binary.LittleEndian.Uint64(key[0:8])
	h2 := binary.LittleEndian.Uint64(key[8:16]) | 1 // odd stride
	return row*int(c.width) + int((h1+uint64(row)*h2)%c.width)
}

// Add increments the count for key.
func (c *CountMin) Add(key hashutil.Sum) {
	for r := 0; r < c.rows; r++ {
		p := c.position(r, key)
		if c.cells[p] != ^uint32(0) { // saturate, never wrap
			c.cells[p]++
		}
	}
}

// Estimate returns the estimated count for key. The estimate never
// underestimates the true count.
func (c *CountMin) Estimate(key hashutil.Sum) uint32 {
	min := ^uint32(0)
	for r := 0; r < c.rows; r++ {
		if v := c.cells[c.position(r, key)]; v < min {
			min = v
		}
	}
	return min
}

// SizeBytes returns the sketch's memory footprint.
func (c *CountMin) SizeBytes() int64 {
	return int64(len(c.cells)) * 4
}
