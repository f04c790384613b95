// Package rabin implements Rabin fingerprinting by random polynomials
// (Rabin, 1981), the rolling hash underlying content-defined chunking in
// LBFS and virtually every deduplication system since, including the paper
// reproduced by this repository.
//
// A fingerprint is the residue of the input, interpreted as a polynomial
// over GF(2), modulo a fixed irreducible polynomial P of degree < 64. The
// package provides the polynomial arithmetic (multiplication, modulo,
// irreducibility testing) and a sliding-window fingerprinter with
// precomputed push/pop tables so the per-byte cost is two table lookups
// and two XORs.
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

// Add returns p + q over GF(2) (which is XOR, and identical to subtraction).
func (p Poly) Add(q Poly) Poly {
	return p ^ q
}

// MulMod returns (p · q) mod m over GF(2). The computation reduces as it
// goes, so it is correct even when the plain product would overflow 64
// bits.
//
// m must be non-zero; a zero modulus panics. This is a programmer-error
// invariant, not a data-dependent failure: every modulus in this package
// reaches MulMod from one of three sources, none of which can be zero —
// DefaultPoly is a non-zero constant, RandomPoly returns only irreducible
// (hence non-zero) polynomials, and NewWindow rejects any polynomial of
// degree < 9 before building its tables. Untrusted input never selects the
// modulus, so the panic can only fire on a caller bug, exactly like an
// out-of-range slice index.
func (p Poly) MulMod(q, m Poly) Poly {
	if m == 0 {
		panic("rabin: modulo by zero polynomial")
	}
	p = p.Mod(m)
	q = q.Mod(m)
	degM := m.Deg()
	var res Poly
	for q != 0 {
		if q&1 != 0 {
			res ^= p
		}
		q >>= 1
		// p = p·x mod m, keeping deg(p) < deg(m).
		p <<= 1
		if p.hasBit(degM) {
			p ^= m
		}
	}
	return res
}

// Mod returns p mod m over GF(2). A zero modulus panics; as with MulMod
// this is a programmer-error invariant (see there) — no public code path
// lets input data choose m.
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

// GCD returns the greatest common divisor of p and q over GF(2).
func (p Poly) GCD(q Poly) Poly {
	for q != 0 {
		p, q = q, p.Mod(q)
	}
	return p
}

func (p Poly) hasBit(i int) bool {
	return i >= 0 && i < 64 && p&(1<<uint(i)) != 0
}

// expMod returns x^(2^n) mod m, computed by repeated squaring.
func expMod(n int, m Poly) Poly {
	r := Poly(2) // the polynomial x
	for i := 0; i < n; i++ {
		r = r.MulMod(r, m)
	}
	return r
}

// Irreducible reports whether p is irreducible over GF(2), using Ben-Or's
// algorithm: p of degree d is irreducible iff gcd(x^(2^i) − x, p) = 1 for
// every 1 ≤ i ≤ d/2.
func (p Poly) Irreducible() bool {
	d := p.Deg()
	if d <= 0 {
		return false
	}
	if d == 1 {
		return true // x and x+1
	}
	if p&1 == 0 {
		return false // divisible by x
	}
	for i := 1; i <= d/2; i++ {
		// x^(2^i) − x = x^(2^i) + x over GF(2).
		q := expMod(i, p) ^ 2
		if p.GCD(q) != 1 {
			return false
		}
	}
	return true
}
