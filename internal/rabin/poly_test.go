package rabin

// The rest of the GF(2) polynomial arithmetic, and a look at a window's
// digest: the tests check the window's tables and pick random irreducible
// moduli with them; nothing else needs them.

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

// Fingerprint returns the fingerprint of the bytes currently in the window
// (the last size bytes rolled, zero-padded if fewer have been seen).
func (w *Window) Fingerprint() Poly {
	return w.digest
}
