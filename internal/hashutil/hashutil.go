// Package hashutil provides the content hash type used throughout the
// deduplication system.
//
// The paper (and virtually every 2013-era deduplication system) identifies
// chunks by their SHA-1 digest; a Sum is therefore a 20-byte value, a
// comparable array type so Sums can be used directly as map keys. The package
// is every SHA-1 the system computes — one-shot hashing, a streaming Hasher,
// stable textual forms — and it picks the block function once, from the CPU:
// the SHA extensions' kernel (digest, sha1block_amd64.s) where CPUID reports
// them, crypto/sha1 whole and untouched everywhere else (DESIGN §12a).
package hashutil

import (
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"hash"
)

// Size is the byte length of a Sum (SHA-1 digest size).
const Size = sha1.Size

// Sum is a 20-byte SHA-1 content hash. The zero value is the hash of no
// particular content and is never produced by SumBytes; it can be used as a
// sentinel.
type Sum [Size]byte

// SumBytes returns the SHA-1 digest of b.
func SumBytes(b []byte) Sum {
	if !useSHANI {
		return Sum(sha1.Sum(b))
	}
	var d digest
	d.reset()
	d.write(b)
	return d.sum()
}

// SumString returns the SHA-1 digest of s.
func SumString(s string) Sum { return SumBytes([]byte(s)) }

// Kernel names the block function every Sum in this process comes from:
// "sha-ni" or "crypto/sha1".
func Kernel() string {
	if useSHANI {
		return "sha-ni"
	}
	return "crypto/sha1"
}

// SHANI is the same fact in the shape of a metrics gauge: 1 for "sha-ni".
func SHANI() int64 {
	if useSHANI {
		return 1
	}
	return 0
}

// Hex returns the lowercase hexadecimal form of s (40 characters).
func (s Sum) Hex() string {
	return hex.EncodeToString(s[:])
}

// Short returns the first 8 hex characters of s, for logs and test output.
func (s Sum) Short() string {
	return hex.EncodeToString(s[:4])
}

// String implements fmt.Stringer; it is the same as Short so that large
// structures containing Sums print compactly.
func (s Sum) String() string {
	return s.Short()
}

// IsZero reports whether s is the zero Sum.
func (s Sum) IsZero() bool {
	return s == Sum{}
}

// ParseHex parses a 40-character hexadecimal string into a Sum.
func ParseHex(text string) (Sum, error) {
	var s Sum
	if len(text) != Size*2 {
		return s, fmt.Errorf("hashutil: hex sum must be %d characters, got %d", Size*2, len(text))
	}
	b, err := hex.DecodeString(text)
	if err != nil {
		return s, fmt.Errorf("hashutil: invalid hex sum: %w", err)
	}
	copy(s[:], b)
	return s, nil
}

// Hasher accumulates bytes and produces a Sum. It exists so callers can hash
// streaming data (e.g. whole restored files in round-trip tests) without
// buffering.
type Hasher struct {
	d   digest    // the SHA-NI kernel's whole state, inline: no allocation per use
	std hash.Hash // crypto/sha1's, on a CPU without the SHA extensions; else nil
}

// NewHasher returns a ready-to-use Hasher.
func NewHasher() *Hasher {
	h := &Hasher{}
	if useSHANI {
		h.d.reset()
	} else {
		h.std = sha1.New()
	}
	return h
}

// Write adds p to the running hash. It never fails.
func (h *Hasher) Write(p []byte) (int, error) {
	if h.std != nil {
		return h.std.Write(p)
	}
	h.d.write(p)
	return len(p), nil
}

// Sum returns the digest of everything written so far. The Hasher may keep
// being written to afterwards; Sum does not reset it.
func (h *Hasher) Sum() Sum {
	if h.std != nil {
		var out Sum
		h.std.Sum(out[:0])
		return out
	}
	return h.d.sum()
}

// Reset returns the Hasher to its initial state.
func (h *Hasher) Reset() {
	if h.std != nil {
		h.std.Reset()
	} else {
		h.d.reset()
	}
}
