package rabin

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDeg(t *testing.T) {
	cases := []struct {
		p    Poly
		want int
	}{
		{0, -1},
		{1, 0},
		{2, 1},
		{3, 1},
		{0x3DA3358B4DC173, 53},
		{1 << 63, 63},
	}
	for _, c := range cases {
		if got := c.p.Deg(); got != c.want {
			t.Errorf("Deg(%#x) = %d, want %d", uint64(c.p), got, c.want)
		}
	}
}

func TestModBasic(t *testing.T) {
	// x^3 + x mod x^2+1: x^3+x = x·(x^2+1), so remainder 0.
	if got := Poly(0b1010).Mod(0b101); got != 0 {
		t.Errorf("(x^3+x) mod (x^2+1) = %#b, want 0", uint64(got))
	}
	// x^2 mod x^2+1 = 1.
	if got := Poly(0b100).Mod(0b101); got != 1 {
		t.Errorf("x^2 mod (x^2+1) = %#b, want 1", uint64(got))
	}
}

func TestModProperties(t *testing.T) {
	f := func(a uint64, m uint64) bool {
		mp := Poly(m)
		if mp == 0 {
			return true // modulo by zero panics by contract; skip
		}
		r := Poly(a).Mod(mp)
		return r.Deg() < mp.Deg()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulModDistributes(t *testing.T) {
	m := DefaultPoly
	f := func(a, b, c uint64) bool {
		pa, pb, pc := Poly(a), Poly(b), Poly(c)
		// (a+b)·c = a·c + b·c over GF(2).
		left := pa.Add(pb).MulMod(pc, m)
		right := pa.MulMod(pc, m).Add(pb.MulMod(pc, m))
		return left == right
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulModCommutes(t *testing.T) {
	m := DefaultPoly
	f := func(a, b uint64) bool {
		return Poly(a).MulMod(Poly(b), m) == Poly(b).MulMod(Poly(a), m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGCD(t *testing.T) {
	// gcd(x^2+x, x) = x  (x^2+x = x(x+1))
	if got := Poly(0b110).GCD(0b10); got != 0b10 {
		t.Errorf("gcd = %#b, want x", uint64(got))
	}
	// gcd of coprime polys x+1 and x is 1.
	if got := Poly(0b11).GCD(0b10); got != 1 {
		t.Errorf("gcd = %#b, want 1", uint64(got))
	}
}

func TestIrreducibleKnownValues(t *testing.T) {
	irreducible := []Poly{
		0b10,        // x
		0b11,        // x + 1
		0b111,       // x^2 + x + 1
		0b1011,      // x^3 + x + 1
		0b1101,      // x^3 + x^2 + 1
		0b10011,     // x^4 + x + 1
		DefaultPoly, // LBFS degree-53 polynomial
	}
	for _, p := range irreducible {
		if !p.Irreducible() {
			t.Errorf("%#x should be irreducible", uint64(p))
		}
	}
	reducible := []Poly{
		0,
		1,       // constant
		0b100,   // x^2 = x·x
		0b101,   // x^2 + 1 = (x+1)^2
		0b110,   // x^2 + x = x(x+1)
		0b1111,  // x^3+x^2+x+1 = (x+1)(x^2+1)
		0b10101, // x^4 + x^2 + 1 = (x^2+x+1)^2
	}
	for _, p := range reducible {
		if p.Irreducible() {
			t.Errorf("%#x should be reducible", uint64(p))
		}
	}
}

func TestRandomPoly(t *testing.T) {
	seen := map[Poly]bool{}
	for seed := int64(0); seed < 5; seed++ {
		p, err := RandomPoly(seed)
		if err != nil {
			t.Fatalf("RandomPoly(%d): %v", seed, err)
		}
		if p.Deg() != 53 {
			t.Errorf("RandomPoly(%d) degree = %d, want 53", seed, p.Deg())
		}
		if !p.Irreducible() {
			t.Errorf("RandomPoly(%d) = %#x is not irreducible", seed, uint64(p))
		}
		seen[p] = true
	}
	if len(seen) < 2 {
		t.Error("distinct seeds should generally give distinct polynomials")
	}
	// Determinism.
	a, _ := RandomPoly(42)
	b, _ := RandomPoly(42)
	if a != b {
		t.Error("RandomPoly must be deterministic per seed")
	}
}

func TestWindowRollingMatchesDirect(t *testing.T) {
	const winSize = 16
	w := mustWindow(t, DefaultPoly, winSize)
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 4096)
	rng.Read(data)
	for i, b := range data {
		got := w.Roll(b)
		// The window contains the last winSize bytes (zero-padded early on).
		var window []byte
		if i+1 >= winSize {
			window = data[i+1-winSize : i+1]
		} else {
			window = append(make([]byte, winSize-i-1), data[:i+1]...)
		}
		want := FingerprintOf(DefaultPoly, window)
		if got != want {
			t.Fatalf("at byte %d: rolling fingerprint %#x != direct %#x", i, uint64(got), uint64(want))
		}
	}
}

func TestWindowRollingMatchesDirectRandomPoly(t *testing.T) {
	p, err := RandomPoly(99)
	if err != nil {
		t.Fatal(err)
	}
	w := mustWindow(t, p, DefaultWindowSize)
	rng := rand.New(rand.NewSource(8))
	data := make([]byte, 1024)
	rng.Read(data)
	for i, b := range data {
		got := w.Roll(b)
		if i+1 < DefaultWindowSize {
			continue
		}
		want := FingerprintOf(p, data[i+1-DefaultWindowSize:i+1])
		if got != want {
			t.Fatalf("at byte %d: rolling %#x != direct %#x", i, uint64(got), uint64(want))
		}
	}
}

func TestWindowPositionIndependence(t *testing.T) {
	// The fingerprint after a full window must depend only on the window
	// contents, not on what came before — the property CDC relies on.
	w1 := mustWindow(t, DefaultPoly, 8)
	w2 := mustWindow(t, DefaultPoly, 8)
	window := []byte("abcdefgh")
	prefix := []byte("SOME PREFIX OF DIFFERENT CONTENT AND LENGTH")
	for _, b := range append(append([]byte{}, prefix...), window...) {
		w1.Roll(b)
	}
	for _, b := range window {
		w2.Roll(b)
	}
	if w1.Fingerprint() != w2.Fingerprint() {
		t.Error("fingerprint depends on bytes outside the window")
	}
}

func TestWindowReset(t *testing.T) {
	w := mustWindow(t, DefaultPoly, 8)
	for _, b := range []byte("hello world hello") {
		w.Roll(b)
	}
	w.Reset()
	if w.Fingerprint() != 0 {
		t.Error("Reset should zero the digest")
	}
	var after Poly
	for _, b := range []byte("abcdefgh") {
		after = w.Roll(b)
	}
	if after != FingerprintOf(DefaultPoly, []byte("abcdefgh")) {
		t.Error("Window misbehaves after Reset")
	}
}

func TestNewWindowValidation(t *testing.T) {
	if _, err := NewWindow(DefaultPoly, 0); err == nil {
		t.Error("size 0 should be rejected")
	}
	if _, err := NewWindow(DefaultPoly, -3); err == nil {
		t.Error("negative size should be rejected")
	}
	if _, err := NewWindow(0b1011, 8); err == nil { // degree 3 < 9
		t.Error("low-degree polynomial should be rejected")
	}
}

// mustWindow builds a Window from known-good parameters, failing the test
// on error. Production code always uses NewWindow and handles the error.
func mustWindow(t *testing.T, poly Poly, size int) *Window {
	t.Helper()
	w, err := NewWindow(poly, size)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestZeroModulusPanics pins the documented programmer-error invariant of
// Mod and MulMod: a zero modulus is a caller bug and must fail fast with a
// panic rather than loop forever or return garbage. No public path lets
// input data choose the modulus (DefaultPoly is constant, RandomPoly
// returns only irreducible polynomials, NewWindow validates degree), so
// these panics are unreachable in production.
func TestZeroModulusPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s with zero modulus should panic", name)
			}
		}()
		fn()
	}
	mustPanic("Mod", func() { Poly(0b1011).Mod(0) })
	mustPanic("MulMod", func() { Poly(0b1011).MulMod(0b110, 0) })
}

func TestFingerprintDistribution(t *testing.T) {
	// Cut-point selection masks the low bits of the fingerprint; those bits
	// must be roughly uniform for the chunk-size distribution to hold. Roll
	// random data and check the frequency of (fp & 0xFF == 0) is near 1/256.
	w := mustWindow(t, DefaultPoly, DefaultWindowSize)
	rng := rand.New(rand.NewSource(12345))
	data := make([]byte, 1<<20)
	rng.Read(data)
	hits := 0
	for _, b := range data {
		if w.Roll(b)&0xFF == 0 {
			hits++
		}
	}
	expected := len(data) / 256
	if hits < expected/2 || hits > expected*2 {
		t.Errorf("mask hits = %d, expected near %d: low bits not uniform", hits, expected)
	}
}

func BenchmarkRoll(b *testing.B) {
	w, err := NewWindow(DefaultPoly, DefaultWindowSize)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 1<<16)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range data {
			w.Roll(c)
		}
	}
}
