package rabin

import (
	"fmt"
	"sync"
)

// DefaultWindowSize is the sliding-window width in bytes used by the
// chunkers. 48 bytes is the LBFS value; the fingerprint then depends on the
// last 48 bytes seen, which is what makes cut points content-defined and
// immune to boundary shifting.
const DefaultWindowSize = 48

// Window is a sliding-window Rabin fingerprinter. Feed bytes with Roll; the
// current fingerprint of the most recent WindowSize bytes is Fingerprint().
// The zero value is not usable; construct with NewWindow.
type Window struct {
	poly   Poly
	size   int
	shift  uint // deg(poly) − 8: position of the top byte of the digest
	tabs   *windowTabs
	window []byte
	pos    int
	digest Poly
}

// windowTabs holds the byte-at-a-time reduction tables. They are a pure
// function of (poly, size), so they are built once and shared by every
// Window over the same pair — the engine constructs a chunker per file, and
// rebuilding the tables (256 × size slow polynomial reductions) per file
// used to cost about as much as scanning a megabyte.
type windowTabs struct {
	modTab [256]Poly
	outTab [256]Poly
	// out8Tab[b] is outTab[b] carried through one more byte append:
	// (outTab[b] << 8) ^ modTab[top byte of outTab[b]]. Appending a byte is
	// GF(2)-linear in the digest, so evicting b and then appending equals
	// appending and then XORing out8Tab[b] — which takes the evicted byte's
	// table load off RollFind's serial dependency chain.
	out8Tab [256]Poly
}

type windowTabKey struct {
	poly Poly
	size int
}

var tabCache sync.Map // windowTabKey → *windowTabs

// NewWindow returns a Window over the given irreducible polynomial with the
// given window size in bytes. Size must be positive; poly must have degree
// of at least 9 so the byte-at-a-time table reduction is valid.
func NewWindow(poly Poly, size int) (*Window, error) {
	if size <= 0 {
		return nil, fmt.Errorf("rabin: window size must be positive, got %d", size)
	}
	deg := poly.Deg()
	if deg < 9 {
		return nil, fmt.Errorf("rabin: polynomial degree must be >= 9, got %d", deg)
	}
	w := &Window{
		poly:   poly,
		size:   size,
		shift:  uint(deg - 8),
		window: make([]byte, size),
	}
	key := windowTabKey{poly: poly, size: size}
	if tabs, ok := tabCache.Load(key); ok {
		w.tabs = tabs.(*windowTabs)
	} else {
		tabs := &windowTabs{}
		// modTab[b] reduces a digest whose top byte is b: it is (b · x^deg)
		// mod poly, with the b·x^deg term itself included so the caller can
		// XOR the whole top byte away in one operation.
		for b := 0; b < 256; b++ {
			v := Poly(b) << uint(deg)
			tabs.modTab[b] = v.Mod(poly) | v
		}
		// outTab[b] is the contribution of byte b once it has been shifted
		// through the entire window: (b · x^(8·size)) mod poly. XORing it
		// out removes the oldest byte from the digest.
		for b := 0; b < 256; b++ {
			h := Poly(0)
			h = w.appendByteSlow(h, byte(b))
			for i := 0; i < size-1; i++ {
				h = w.appendByteSlow(h, 0)
			}
			tabs.outTab[b] = h
			tabs.out8Tab[b] = (h << 8) ^ tabs.modTab[byte(h>>w.shift)]
		}
		actual, _ := tabCache.LoadOrStore(key, tabs)
		w.tabs = actual.(*windowTabs)
	}
	w.Reset()
	return w, nil
}

// appendByteSlow extends digest by one byte using bitwise reduction; table
// construction only.
func (w *Window) appendByteSlow(digest Poly, b byte) Poly {
	digest <<= 8
	digest |= Poly(b)
	return digest.Mod(w.poly)
}

// Reset clears the window to all zero bytes and the digest to zero.
func (w *Window) Reset() {
	for i := range w.window {
		w.window[i] = 0
	}
	w.pos = 0
	w.digest = 0
}

// Roll slides the window forward by one byte and returns the new
// fingerprint.
func (w *Window) Roll(b byte) Poly {
	out := w.window[w.pos]
	w.window[w.pos] = b
	w.pos++
	if w.pos == w.size {
		w.pos = 0
	}
	w.digest ^= w.tabs.outTab[out]
	// Append b: shift the digest up a byte; the former top byte now sits at
	// x^deg..x^(deg+7) and modTab (which includes that term) cancels it and
	// adds its residue, keeping deg(digest) < deg(poly).
	top := byte(w.digest >> w.shift)
	w.digest = (w.digest << 8) | Poly(b)
	w.digest ^= w.tabs.modTab[top]
	return w.digest
}

// RollBlock rolls every byte of blk through the window. It is equivalent to
// calling Roll once per byte, but hoists the table pointers and window state
// into locals so the per-byte cost in the loop is the two lookups and two
// XORs with no method-call or field-load overhead — the block-processed
// chunking hot path uses it to warm the window across a buffered slice.
//
// Rolling maintains the invariant digest == fingerprint(ring contents), so
// when blk is at least a full window the final state depends only on the
// last Size() bytes — RollBlock then resets and rolls just those.
func (w *Window) RollBlock(blk []byte) {
	if len(blk) >= w.size {
		w.Reset()
		blk = blk[len(blk)-w.size:]
	}
	w.rollRing(blk)
}

// rollRing is the ring-maintaining per-byte roll over a slice, state
// hoisted into locals.
func (w *Window) rollRing(blk []byte) {
	digest := w.digest
	pos := w.pos
	size := w.size
	shift := w.shift
	win := w.window
	mod := &w.tabs.modTab
	out := &w.tabs.outTab
	for _, b := range blk {
		o := win[pos]
		win[pos] = b
		pos++
		if pos == size {
			pos = 0
		}
		digest ^= out[o]
		top := byte(digest >> shift)
		digest = (digest << 8) | Poly(b)
		digest ^= mod[top]
	}
	w.digest = digest
	w.pos = pos
}

// RollFind rolls bytes of blk through the window until the fingerprint
// masked by mask equals mask. It returns how many bytes were consumed and
// whether a match stopped the scan; on a match the matching byte is
// included in the count and the window state is exactly as if Roll had been
// called byte-by-byte up to and including it.
//
// This is the chunking hot loop, structured in two phases. The first
// Size() bytes evict bytes rolled before this call, which live only in the
// ring buffer. From index Size() on, the evicted byte is blk[i−Size()] —
// the ring drops out of the loop entirely (no stores, no wrap test; just
// the two table lookups, two XORs and the mask test per byte) and is
// reconstructed from the slice tail on exit. There the eviction is folded
// into the append through out8Tab, so the loop-carried chain is shift →
// modTab load → XOR; the evicted byte's lookup depends only on the input.
func (w *Window) RollFind(blk []byte, mask Poly) (n int, found bool) {
	digest := w.digest
	pos := w.pos
	size := w.size
	shift := w.shift
	win := w.window
	mod := &w.tabs.modTab
	out := &w.tabs.outTab

	// Phase 1: ring-maintained roll over the first min(Size, len) bytes.
	nA := size
	if nA > len(blk) {
		nA = len(blk)
	}
	for i := 0; i < nA; i++ {
		b := blk[i]
		o := win[pos]
		win[pos] = b
		pos++
		if pos == size {
			pos = 0
		}
		digest ^= out[o]
		top := byte(digest >> shift)
		digest = (digest << 8) | Poly(b)
		digest ^= mod[top]
		if digest&mask == mask {
			w.digest = digest
			w.pos = pos
			return i + 1, true
		}
	}
	if nA == len(blk) {
		w.digest = digest
		w.pos = pos
		return nA, false
	}

	// Phase 2: ring-free roll; the evicted byte comes from the slice.
	consumed := len(blk)
	digest, j := w.tabs.find(digest, shift, blk[:len(blk)-size], blk[size:], mask)
	if j >= 0 {
		consumed = size + j + 1
	}
	// Rebuild the ring to hold the last Size() bytes rolled, oldest first,
	// which is the pos==0 rotation.
	copy(win, blk[consumed-size:consumed])
	w.digest = digest
	w.pos = 0
	return consumed, j >= 0
}

// find is RollFind's ring-free loop: tail[j] enters the window as lead[j]
// leaves it. It returns the digest after the last byte rolled and the index
// of the first byte whose fingerprint matched mask, or -1. It is kept out of
// line so the loop's few live values all stay in registers: inlined into
// RollFind the digest and the index spill to the stack every iteration,
// which puts a store-to-load forward on the chain (385 → 320 MB/s).
//
//go:noinline
func (t *windowTabs) find(digest Poly, shift uint, lead, tail []byte, mask Poly) (Poly, int) {
	lead = lead[:len(tail)] // equal lengths for bounds-check elimination
	for j, b := range tail {
		digest = ((digest << 8) | Poly(b)) ^ t.modTab[byte(digest>>(shift&63))] ^ t.out8Tab[lead[j]]
		if digest&mask == mask {
			return digest, j
		}
	}
	return digest, -1
}

// Fingerprint returns the fingerprint of the bytes currently in the window
// (the last Size() bytes rolled, zero-padded if fewer have been seen).
func (w *Window) Fingerprint() Poly {
	return w.digest
}

// Size returns the window width in bytes.
func (w *Window) Size() int {
	return w.size
}

// Poly returns the modulus polynomial.
func (w *Window) Poly() Poly {
	return w.poly
}

// FingerprintOf computes, without any rolling state, the fingerprint of the
// given bytes modulo poly. It is the reference the rolling implementation is
// tested against.
func FingerprintOf(poly Poly, data []byte) Poly {
	var d Poly
	for _, b := range data {
		d <<= 8
		d |= Poly(b)
		d = d.Mod(poly)
	}
	return d
}
