package rabin

import (
	"math/bits"
	"slices"
)

// lanes is how many segments of a block Candidates rolls side by side. The
// per-byte recurrence is one dependency chain — shift, modTab load, XOR —
// and a core retires several such chains in the time one takes: one lane
// 293 MB/s, two 537, three 747, four 795, six 815, eight 785 (DESIGN §12).
// A segment shorter than minLane windows is not worth its warm-up.
const lanes, minLane = 4, 2

// wideLanes is how many segments the byte-sliced kernel rolls side by side
// where the CPU has it (useWide, DESIGN §12.1): one per byte of a ZMM
// register. A block's first tile of steps costs what four lanes take for
// 384–512 bytes, so a block is only given to it from wideMinLane bytes a
// lane on.
const wideLanes, wideMinLane = 64, 8

// Candidates rolls buf[from:] through the window, as Roll would byte by
// byte, and appends to dst, in increasing order, every index whose
// fingerprint masked by mask equals mask: the candidate cuts of a whole
// block in one pass, for the caller to apply its minimum and maximum to.
// A block of wideLanes·wideMinLane bytes or more is rolled on 64 lanes
// where the CPU has the byte-sliced kernel and the window and mask fit it
// (windowTabs.wide, a mask below 2^16); a block, or what the 64 lanes leave
// of it, of lanes·minLane windows or more on four lanes; the rest on one.
//
// The scan evicts from the slice, not the ring, so a window's width of
// bytes before from must be in buf — and is what the window is taken to
// hold: with cont unset it is reloaded from them first; with cont set the
// caller vouches it holds them already (the previous Roll or Candidates
// ended at from) and the scan continues from the current digest. Either
// way the window ends as Roll would leave it.
func (w *Window) Candidates(dst []int, buf []byte, from int, mask Poly, cont bool) []int {
	size := w.size
	if cont && len(buf)-from < size {
		// Too short to rebuild the ring from: roll it through the ring.
		for i, b := range buf[from:] {
			if w.Roll(b)&mask == mask {
				dst = append(dst, from+i)
			}
		}
		return dst
	}
	d := w.digest
	if !cont {
		d = w.tabs.warm(w.shift, buf[from-size:from])
	}
	if q := (len(buf) - from) / wideLanes; useWide && w.tabs.wide != nil && mask < 1<<16 && q >= wideMinLane {
		// The wide scan warms its first lane like the others: a window's
		// digest is a function of the bytes it holds, so that is d.
		dst, d = w.scanWide(dst, buf, from, q, mask)
		from += wideLanes * q
	}
	if q := (len(buf) - from) / lanes; q >= minLane*size {
		dst, d = w.scanLanes(dst, buf, from, q, d, mask)
		from += lanes * q
	}
	for j := 0; from < len(buf); from += j + 1 {
		if d, j = w.tabs.run1(d, w.shift, buf[from-size:len(buf)-size], buf[from:], mask); j < 0 {
			break
		}
		dst = append(dst, from+j)
	}
	w.digest, w.pos = d, 0
	copy(w.window, buf[len(buf)-size:])
	return dst
}

// wideTabs holds modTab and out8Tab as the byte-sliced kernel takes them.
// Both are GF(2)-linear in their index, so byte j of either is an 8×8 bit
// matrix times the index byte: mod[j] and out[j], in VGF2P8AFFINEQB's
// layout, where bit i of the product is the parity of row 7−i and the
// index. top (bits deg-8…deg-1 of the digest) is picked out of digest bytes
// 5 and 6 by VPMULTISHIFTQB with ctrl5 and ctrl6, the bits where sel is set
// from byte 5.
type wideTabs struct {
	mod, out          [7]uint64
	ctrl5, ctrl6, sel uint64
}

func newWideTabs(t *windowTabs, deg int) *wideTabs {
	w := &wideTabs{sel: 0x0101010101010101 * uint64(0xff>>(deg-48))}
	for i := 0; i < 8; i++ {
		w.ctrl5 |= uint64(8*i+deg-48) << (8 * i)
		w.ctrl6 |= uint64((8*i+deg-56)&63) << (8 * i)
		for j := range w.mod {
			for k := 0; k < 8; k++ {
				w.mod[j] |= uint64(t.modTab[1<<k]>>(8*j+i)&1) << (8*(7-i) + k)
				w.out[j] |= uint64(t.out8Tab[1<<k]>>(8*j+i)&1) << (8*(7-i) + k)
			}
		}
	}
	return w
}

// wideState is the byte-sliced scan between tiles (wide_amd64.s): byte j of
// lane k's digest in planes[j][k]; a hit record {lanes that hit, step} for
// each step of the last tile some lane hit at; and a ring of 128 transposed
// columns, column s holding step s of every lane, 64-byte aligned in ring.
type wideState struct {
	planes [7][wideLanes]byte
	hits   [64][2]uint64
	ring   [129 * wideLanes]byte
}

// scanWide is scanLanes on wideLanes segments, in tiles of 64 steps: a
// lane's first size steps warm it over the window before its segment, the
// next q roll the segment. Hits come out step by step, lane by lane, and are
// sorted into position order at the end — in place, allocating nothing.
func (w *Window) scanWide(dst []int, buf []byte, from, q int, mask Poly) ([]int, Poly) {
	var st wideState
	size, start := w.size, len(dst)
	for g, n := 0, size+q; g < n; g += 64 {
		for _, h := range st.hits[:wideTile(&st, w.tabs.wide, &buf[from-size], q, g, n, size, uint64(mask))] {
			for m, i := h[0], int(h[1])-size; m != 0 && i >= 0; m &= m - 1 {
				dst = append(dst, from+bits.TrailingZeros64(m)*q+i)
			}
		}
	}
	slices.Sort(dst[start:])
	var d Poly
	for j := range st.planes {
		d |= Poly(st.planes[j][wideLanes-1]) << (8 * j)
	}
	return dst, d
}

// scanLanes rolls lanes segments of q bytes from buf[from] side by side,
// the first from digest d, the others warmed over the window before them,
// and returns the digest the last ended on. Hits come out in index order,
// not position order, so they are appended as found, then once more lane by
// lane — dst is its own scratch — and the ordered copy moved down.
func (w *Window) scanLanes(dst []int, buf []byte, from, q int, d, mask Poly) ([]int, Poly) {
	t, shift, size := w.tabs, w.shift, w.size
	ds := [lanes]Poly{d}
	for k := 1; k < lanes; k++ {
		ds[k] = t.warm(shift, buf[from+k*q-size:from+k*q])
	}
	lead, tail := buf[from-size:from-size+lanes*q], buf[from:from+lanes*q]
	start := len(dst)
	for i := 0; ; i++ {
		if i = t.run4(&ds, shift, lead, tail, i, mask); i == q {
			break
		}
		for k, d := range ds {
			if d&mask == mask {
				dst = append(dst, from+k*q+i)
			}
		}
	}
	found := len(dst)
	for lo := from; lo < from+lanes*q; lo += q {
		for _, p := range dst[start:found] {
			if lo <= p && p < lo+q {
				dst = append(dst, p)
			}
		}
	}
	return append(dst[:start], dst[found:]...), ds[lanes-1]
}

// warm returns the digest of a window holding exactly blk.
func (t *windowTabs) warm(shift uint, blk []byte) Poly {
	var d Poly
	for _, b := range blk {
		d = ((d << 8) | Poly(b)) ^ t.modTab[byte(d>>(shift&63))]
	}
	return d
}

// run1 is the one-lane loop: tail[j] enters the window as lead[j] leaves
// it, the eviction folded into the append through out8Tab. It returns the
// digest after the last byte rolled and the index of the first byte whose
// fingerprint matched mask, or -1. It is kept out of line, and free of
// appends, so the loop's few live values all stay in registers: a spill
// puts a store-to-load forward on the chain (385 → 320 MB/s).
//
//go:noinline
func (t *windowTabs) run1(d Poly, shift uint, lead, tail []byte, mask Poly) (Poly, int) {
	lead = lead[:len(tail)] // equal lengths for bounds-check elimination
	for j, b := range tail {
		d = ((d << 8) | Poly(b)) ^ t.modTab[byte(d>>(shift&63))] ^ t.out8Tab[lead[j]]
		if d&mask == mask {
			return d, j
		}
	}
	return d, -1
}

// run4 is run1 on four lanes: lead and tail hold four segments of equal
// length back to back, lane k rolling the k-th from ds[k]. From index i of
// every segment it advances all four until some lane matches mask and
// returns that index, or the segment length when none does, ds updated to
// the digests there. Which lanes matched is for the caller to ask of ds:
// recording hits in the loop spills the digests.
//
//go:noinline
func (t *windowTabs) run4(ds *[lanes]Poly, shift uint, lead, tail []byte, i int, mask Poly) int {
	q := len(tail) / lanes
	t0, t1, t2, t3 := tail[i:q], tail[q+i:2*q], tail[2*q+i:3*q], tail[3*q+i:4*q]
	l0, l1, l2, l3 := lead[i:q], lead[q+i:2*q], lead[2*q+i:3*q], lead[3*q+i:4*q]
	t1, t2, t3 = t1[:len(t0)], t2[:len(t0)], t3[:len(t0)] // equal lengths for bounds-check elimination
	l0, l1, l2, l3 = l0[:len(t0)], l1[:len(t0)], l2[:len(t0)], l3[:len(t0)]
	d0, d1, d2, d3 := ds[0], ds[1], ds[2], ds[3]
	for j, b := range t0 {
		d0 = ((d0 << 8) | Poly(b)) ^ t.modTab[byte(d0>>(shift&63))] ^ t.out8Tab[l0[j]]
		d1 = ((d1 << 8) | Poly(t1[j])) ^ t.modTab[byte(d1>>(shift&63))] ^ t.out8Tab[l1[j]]
		d2 = ((d2 << 8) | Poly(t2[j])) ^ t.modTab[byte(d2>>(shift&63))] ^ t.out8Tab[l2[j]]
		d3 = ((d3 << 8) | Poly(t3[j])) ^ t.modTab[byte(d3>>(shift&63))] ^ t.out8Tab[l3[j]]
		if d0&mask == mask || d1&mask == mask || d2&mask == mask || d3&mask == mask {
			q = i + j
			break
		}
	}
	ds[0], ds[1], ds[2], ds[3] = d0, d1, d2, d3
	return q
}
