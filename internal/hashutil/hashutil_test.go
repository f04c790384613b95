package hashutil

import (
	"bytes"
	"crypto/sha1"
	"testing"
	"testing/quick"
)

func TestSumBytesMatchesStdlib(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		[]byte("a"),
		[]byte("hello, dedup"),
		bytes.Repeat([]byte{0xAB}, 4096),
	}
	for _, in := range inputs {
		want := Sum(sha1.Sum(in))
		if got := SumBytes(in); got != want {
			t.Errorf("SumBytes(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestSumStringMatchesSumBytes(t *testing.T) {
	for _, s := range []string{"", "x", "content-defined chunking"} {
		if SumString(s) != SumBytes([]byte(s)) {
			t.Errorf("SumString(%q) != SumBytes of same content", s)
		}
	}
}

func TestHexRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		s := SumBytes(data)
		back, err := ParseHex(s.Hex())
		return err == nil && back == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseHexRejectsBadInput(t *testing.T) {
	cases := []string{
		"",
		"abcd",
		"zz00000000000000000000000000000000000000",   // non-hex
		"0000000000000000000000000000000000000000ff", // too long
	}
	for _, c := range cases {
		if _, err := ParseHex(c); err == nil {
			t.Errorf("ParseHex(%q) succeeded, want error", c)
		}
	}
}

func TestShortAndString(t *testing.T) {
	s := SumBytes([]byte("abc"))
	if len(s.Short()) != 8 {
		t.Errorf("Short() length = %d, want 8", len(s.Short()))
	}
	if s.String() != s.Short() {
		t.Error("String() should equal Short()")
	}
	if len(s.Hex()) != 40 {
		t.Errorf("Hex() length = %d, want 40", len(s.Hex()))
	}
}

func TestIsZero(t *testing.T) {
	var z Sum
	if !z.IsZero() {
		t.Error("zero Sum should report IsZero")
	}
	if SumBytes(nil).IsZero() {
		t.Error("hash of empty input should not be the zero Sum")
	}
}

func TestHasherIncremental(t *testing.T) {
	h := NewHasher()
	h.Write([]byte("hello, "))
	h.Write([]byte("world"))
	if h.Sum() != SumBytes([]byte("hello, world")) {
		t.Error("incremental hash differs from one-shot hash")
	}
	// Sum must not reset: writing more should extend the same stream.
	h.Write([]byte("!"))
	if h.Sum() != SumBytes([]byte("hello, world!")) {
		t.Error("Hasher.Sum must not reset the running state")
	}
	h.Reset()
	h.Write([]byte("fresh"))
	if h.Sum() != SumBytes([]byte("fresh")) {
		t.Error("Reset did not clear the Hasher")
	}
}

func TestSumsAreMapKeys(t *testing.T) {
	m := map[Sum]int{}
	a := SumBytes([]byte("a"))
	b := SumBytes([]byte("b"))
	m[a] = 1
	m[b] = 2
	if m[a] != 1 || m[b] != 2 {
		t.Error("Sum map keys misbehave")
	}
	if m[SumBytes([]byte("a"))] != 1 {
		t.Error("recomputed Sum should index the same map entry")
	}
}

func BenchmarkSumBytes8K(b *testing.B) {
	data := bytes.Repeat([]byte{0x5A}, 8192)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		SumBytes(data)
	}
}
