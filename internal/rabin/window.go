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
	// table load off the serial dependency chain of Candidates' loops.
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
	shift := uint(deg - 8)
	key := windowTabKey{poly: poly, size: size}
	cached, ok := tabCache.Load(key)
	if !ok {
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
			h := Poly(b)
			for i := 1; i < size; i++ {
				h = (h << 8).Mod(poly)
			}
			tabs.outTab[b] = h
			tabs.out8Tab[b] = (h << 8) ^ tabs.modTab[byte(h>>shift)]
		}
		cached, _ = tabCache.LoadOrStore(key, tabs)
	}
	return &Window{size: size, shift: shift, tabs: cached.(*windowTabs), window: make([]byte, size)}, nil
}

// Reset clears the window to all zero bytes and the digest to zero.
func (w *Window) Reset() {
	clear(w.window)
	w.pos, w.digest = 0, 0
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

// Fingerprint returns the fingerprint of the bytes currently in the window
// (the last size bytes rolled, zero-padded if fewer have been seen).
func (w *Window) Fingerprint() Poly {
	return w.digest
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
