package chunker

import (
	"io"
	"math/rand"
)

// FastGear is the block-processed twin of FastCDC: the same gear hash, the
// same normalized-chunking masks, the same cut points — bit-identical, as
// the conformance harness proves — but scanned over buffered []byte slices
// in tight branch-light loops instead of pulling one byte at a time.
//
// Three structural changes carry the speedup (the vectorization playbook of
// "Accelerating Data Chunking in Deduplication Systems using Vector
// Instructions" applied at the Go level, where the table-lookup loop is the
// auto-vectorizable shape):
//
//  1. Skip-ahead to Min: h = (h<<1) + gear[b] shifts a byte's contribution
//     out of the 64-bit word after 64 more bytes, so the hash at the first
//     checked position (len == Min) depends only on the 64 bytes ending
//     there. Bytes before Min−64 are never hashed.
//  2. Region-split loops: the scan between Min, ECS and Max runs as
//     separate loops with the mask and bound hoisted, so the per-byte body
//     is one table add plus one mask test — no position comparisons.
//  3. No accumulation: a chunk is a view of the slab its bytes were read
//     into, cut off where the scan stopped.
//
// Like FastCDC, the hash restarts at every cut, so re-chunking a stored
// region reproduces the in-stream cut points.
type FastGear struct {
	p          Params
	gear       [256]uint64
	maskStrict uint64
	maskLoose  uint64
	src        *slabReader
}

// NewFastGear returns a block-processed gear chunker over r, cut-point
// identical to the per-byte FastCDC reference with the same parameters.
func NewFastGear(r io.Reader, p Params) (*FastGear, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &FastGear{p: p, src: newSlabReader(r, 0)}
	c.gear = gearTable(p)
	c.maskStrict, c.maskLoose = gearMasks(p)
	return c, nil
}

// Next returns the next chunk, or io.EOF after the last one.
func (c *FastGear) Next() (Chunk, error) {
	f := c.src
	min, ecs, max := c.p.Min, c.p.ECS, c.p.Max
	// First index whose byte can still influence the hash at the first
	// checked position (chunk index min−1): contributions older than 63
	// positions have shifted out of the word.
	hashFrom := min - 64
	if hashFrom < 0 {
		hashFrom = 0
	}
	gear := &c.gear
	var h uint64
	for {
		if f.pos == f.n && !f.fill() {
			if f.pos > f.start {
				return f.take(f.pos), nil
			}
			return Chunk{}, f.err
		}
		blk := f.buf[f.pos:f.n]
		base := f.pos - f.start // chunk index of blk[0]
		limit := len(blk)
		if base+limit > max { // cap at the forced-cut boundary
			limit = max - base
		}
		i := 0
		cut := -1
		// Region 1 — skip: bytes before hashFrom need no hashing at all.
		if base < hashFrom {
			i = hashFrom - base
			if i > limit {
				i = limit
			}
		}
		// Region 2 — warm-up: hash without testing (positions len < Min).
		if end := min - 1 - base; i < end {
			if end > limit {
				end = limit
			}
			for ; i < end; i++ {
				h = (h << 1) + gear[blk[i]]
			}
		}
		// Region 3 — strict mask: positions Min ≤ len < ECS.
		if end := ecs - 1 - base; i < end {
			if end > limit {
				end = limit
			}
			mask := c.maskStrict
			for ; i < end; i++ {
				h = (h << 1) + gear[blk[i]]
				if h&mask == 0 {
					cut = i + 1
					break
				}
			}
		}
		// Region 4 — loose mask: positions len ≥ ECS, up to the Max cap.
		if cut < 0 {
			mask := c.maskLoose
			for ; i < limit; i++ {
				h = (h << 1) + gear[blk[i]]
				if h&mask == 0 {
					cut = i + 1
					break
				}
			}
		}
		consumed := limit
		if cut >= 0 {
			consumed = cut
		}
		f.pos += consumed
		if cut >= 0 || f.pos-f.start >= max {
			return f.take(f.pos), nil
		}
	}
}

// gearTableSeed derives the 256-entry gear table; fixed so chunking is
// deterministic across processes, overridable for tests through the
// polynomial field (reused as a seed when set).
const gearTableSeed = 0x3DA3358B4DC173

// gearTable builds the 256-entry gear table for p. Factored out so the
// block-processed FastGear and its per-byte reference (FastCDC, in
// reference_test.go) derive byte-identical tables — the foundation of their
// cut-point identity.
func gearTable(p Params) [256]uint64 {
	seed := int64(gearTableSeed)
	if p.Poly != 0 {
		seed = int64(p.Poly)
	}
	var tab [256]uint64
	rng := rand.New(rand.NewSource(seed))
	for i := range tab {
		tab[i] = rng.Uint64()
	}
	return tab
}

// gearMasks returns the normalized-chunking masks for p: bits(ECS)+2 mask
// bits before the target size, bits(ECS)−2 after. FastCDC spreads mask bits
// across the word; the gear hash's upper bits carry the entropy, so both
// masks take them from the top. Shared by FastCDC and FastGear.
func gearMasks(p Params) (strict, loose uint64) {
	bits := 0
	for n := p.ECS; n > 1; n >>= 1 {
		bits++
	}
	return topMask(bits + 2), topMask(bits - 2)
}

// topMask returns a mask with n high bits set, clamped to [1,63].
//
// The low clamp is a deliberate semantic choice for degenerate ECS values
// (bits(ECS) ≤ 2, i.e. ECS ≤ 7): unclamped, the loose mask's bits(ECS)−2
// would reach zero, and a zero mask means h&mask == 0 at every byte — the
// chunker would cut unconditionally at len == ECS, degenerating to
// fixed-size partitioning past the target with no boundary-shift
// resilience. Clamping to one high bit keeps even the loose region
// content-defined (a cut with probability 1/2 per byte), at the cost of a
// mean slightly above ECS for such tiny targets. TestFastCDCSmallECSClamp
// pins this: sizes stay within [Min, Max] and the loose mask never has
// more bits set than the strict one.
func topMask(n int) uint64 {
	if n < 1 {
		n = 1
	}
	if n > 63 {
		n = 63
	}
	return ^uint64(0) << (64 - uint(n))
}
