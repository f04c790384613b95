// Package rabin implements Rabin fingerprinting by random polynomials
// (Rabin, 1981), the rolling hash underlying content-defined chunking in
// LBFS and virtually every deduplication system since, including the paper
// reproduced by this repository.
//
// A fingerprint is the residue of the input, interpreted as a polynomial
// over GF(2), modulo a fixed irreducible polynomial P of degree < 64. The
// package provides a sliding-window fingerprinter with precomputed push/pop
// tables, so the per-byte cost is two table lookups and two XORs, and a
// candidate scan that rolls many windows side by side (Window.Candidates).
package rabin

// Poly is a polynomial over GF(2). Bit i represents the coefficient of x^i,
// so the uint64 value 0b1011 is x^3 + x + 1.
type Poly uint64

// DefaultPoly is the irreducible polynomial of degree 53 used by LBFS and
// later systems. Degree 53 keeps b·x^(8·w) products inside 64 bits for the
// window sizes used by chunkers.
const DefaultPoly Poly = 0x3DA3358B4DC173

// Deg returns the degree of p, or -1 for the zero polynomial.
func (p Poly) Deg() int {
	deg := -1
	for v := uint64(p); v != 0; v >>= 1 {
		deg++
	}
	return deg
}

// Mod returns p mod m over GF(2). m must be non-zero; a zero modulus
// panics. This is a programmer-error invariant, not a data-dependent
// failure: every modulus reaches Mod from DefaultPoly, a non-zero constant,
// or through NewWindow, which rejects any polynomial of degree < 9 before
// building its tables. Untrusted input never selects the modulus, so the
// panic can only fire on a caller bug, exactly like an out-of-range slice
// index.
func (p Poly) Mod(m Poly) Poly {
	if m == 0 {
		panic("rabin: modulo by zero polynomial")
	}
	degM := m.Deg()
	for p.Deg() >= degM {
		p ^= m << uint(p.Deg()-degM)
	}
	return p
}
