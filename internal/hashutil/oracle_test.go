package hashutil

import (
	"bytes"
	"crypto/sha1"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// eachKernel runs f against crypto/sha1 and, where the CPU has the SHA
// extensions, against the SHA-NI kernel, and says which it ran. The oracle
// in every f is crypto/sha1 called directly, which no flip reaches.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	kernels := []bool{false}
	if haveSHANI {
		kernels = append(kernels, true)
	}
	for _, shaNI := range kernels {
		setKernel(t, shaNI)
		t.Run(Kernel(), func(t *testing.T) {
			t.Logf("kernel: %s", Kernel())
			f(t)
		})
	}
	if !haveSHANI {
		t.Log("no SHA-NI kernel on this CPU or build: crypto/sha1 only")
	}
}

func oracle(b []byte) Sum { return Sum(sha1.Sum(b)) }

func pattern(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// checkPieces feeds data to a Hasher in the pieces the schedule names
// (each byte a piece length, cycled; a zero is an empty write; no positive
// length at all means one write), asking for the Sum after every write, and
// compares each answer with the oracle's.
func checkPieces(t *testing.T, data, schedule []byte) {
	t.Helper()
	if bytes.Count(schedule, []byte{0}) == len(schedule) {
		schedule = nil
	}
	if got, want := SumBytes(data), oracle(data); got != want {
		t.Fatalf("SumBytes(%d bytes) = %s, crypto/sha1 says %s", len(data), got.Hex(), want.Hex())
	}
	if got, want := SumString(string(data)), oracle(data); got != want {
		t.Fatalf("SumString(%d bytes) = %s, crypto/sha1 says %s", len(data), got.Hex(), want.Hex())
	}
	h, std := NewHasher(), sha1.New()
	for off, i := 0, 0; ; i++ {
		if got, want := h.Sum(), Sum(std.Sum(nil)); got != want {
			t.Fatalf("Hasher.Sum after %d of %d bytes (%d writes, schedule %v) = %s, crypto/sha1 says %s",
				off, len(data), i, schedule, got.Hex(), want.Hex())
		}
		if off == len(data) {
			return
		}
		n := len(data) - off
		if len(schedule) > 0 {
			n = min(n, int(schedule[i%len(schedule)]))
		}
		h.Write(data[off : off+n])
		std.Write(data[off : off+n])
		off += n
	}
}

func FuzzDigestMatchesStdlib(f *testing.F) {
	for _, n := range []int{0, 55, 56, 63, 64, 65, 119, 120, 1 << 20} {
		f.Add(pattern(n, int64(n)), []byte{})
		f.Add(pattern(n, int64(n)), []byte{1, 63, 0, 64, 65, 255})
	}
	f.Fuzz(func(t *testing.T, data, schedule []byte) {
		eachKernel(t, func(t *testing.T) { checkPieces(t, data, schedule) })
	})
}

func TestDigestEveryLength(t *testing.T) {
	data := pattern(4096+15, 1)
	eachKernel(t, func(t *testing.T) {
		for n := 0; n <= 4096; n++ {
			// Every source alignment: the kernel loads with MOVOU and must not care.
			align := n % 16
			if got, want := SumBytes(data[align:align+n]), oracle(data[align:align+n]); got != want {
				t.Fatalf("SumBytes(len %d, align %d) = %s, crypto/sha1 says %s", n, align, got.Hex(), want.Hex())
			}
		}
		for align := 0; align < 16; align++ {
			for _, n := range []int{64, 65, 128, 3072, 4096} {
				if got, want := SumBytes(data[align:align+n]), oracle(data[align:align+n]); got != want {
					t.Fatalf("SumBytes(len %d, align %d) = %s, crypto/sha1 says %s", n, align, got.Hex(), want.Hex())
				}
			}
		}
	})
}

func TestDigestEveryFirstWriteOffset(t *testing.T) {
	data := pattern(64+4096, 2)
	eachKernel(t, func(t *testing.T) {
		h := NewHasher()
		for first := 0; first < 64; first++ {
			for _, rest := range []int{0, 1, 63 - first, 64 - first, 65 - first, 64, 191, 4096} {
				if rest < 0 {
					continue
				}
				h.Reset() // reuse: one Hasher serves the whole table
				h.Write(data[:first])
				h.Write(data[first : first+rest])
				if got, want := h.Sum(), oracle(data[:first+rest]); got != want {
					t.Fatalf("Write(%d) then Write(%d) = %s, crypto/sha1 says %s", first, rest, got.Hex(), want.Hex())
				}
			}
		}
	})
}

func TestDigestSumThenContinue(t *testing.T) {
	data := pattern(4096, 3)
	eachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		for trial := 0; trial < 200; trial++ {
			schedule := make([]byte, 1+rng.Intn(8))
			rng.Read(schedule)
			checkPieces(t, data[:rng.Intn(len(data)+1)], schedule)
		}
	})
}

// The FIPS 180 example messages.
func TestDigestFIPSVectors(t *testing.T) {
	vectors := []struct{ msg, hex string }{
		{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
		{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq", "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
		{strings.Repeat("a", 1000000), "34aa973cd4c4daa4f61eeb2bdbad27316534016f"},
	}
	eachKernel(t, func(t *testing.T) {
		for _, v := range vectors {
			if got := SumString(v.msg).Hex(); got != v.hex {
				t.Errorf("SumString(%d bytes) = %s, FIPS 180 says %s", len(v.msg), got, v.hex)
			}
			h := NewHasher()
			h.Write([]byte(v.msg))
			if got := h.Sum().Hex(); got != v.hex {
				t.Errorf("Hasher(%d bytes) = %s, FIPS 180 says %s", len(v.msg), got, v.hex)
			}
		}
	})
}

// A message of 4 GiB + 16 MiB: the bit length no longer fits 32 bits, and
// the byte length no longer fits a uint32 either.
func TestDigestPast4GiB(t *testing.T) {
	if testing.Short() {
		t.Skip("hashes 4 GiB per kernel")
	}
	buf := pattern(16<<20, 5)
	const writes = 257
	std := sha1.New()
	for i := 0; i < writes; i++ {
		std.Write(buf)
	}
	want := Sum(std.Sum(nil))
	eachKernel(t, func(t *testing.T) {
		h := NewHasher()
		for i := 0; i < writes; i++ {
			h.Write(buf)
		}
		if got := h.Sum(); got != want {
			t.Fatalf("%d x %d bytes = %s, crypto/sha1 says %s", writes, len(buf), got.Hex(), want.Hex())
		}
	})
}

func TestDigestConcurrent(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				data := pattern(3072+g, int64(g))
				want := oracle(data)
				h := NewHasher()
				for i := 0; i < 200; i++ {
					h.Reset()
					h.Write(data[:i])
					h.Write(data[i:])
					if got := h.Sum(); got != want || SumBytes(data) != want {
						t.Errorf("goroutine %d, iteration %d: %s, crypto/sha1 says %s", g, i, got.Hex(), want.Hex())
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// The SHA-NI path keeps its state on the stack (SumBytes) or inline in the
// Hasher: hashing allocates nothing.
func TestSHANIPathDoesNotAllocate(t *testing.T) {
	if !haveSHANI {
		t.Skip("no SHA-NI kernel on this CPU or build")
	}
	setKernel(t, true)
	data := bytes.Repeat([]byte{0x5A}, 3072+17)
	var sink Sum
	if n := testing.AllocsPerRun(100, func() { sink = SumBytes(data) }); n != 0 {
		t.Errorf("SumBytes allocates %v times per call, want 0", n)
	}
	h := NewHasher()
	if n := testing.AllocsPerRun(100, func() {
		h.Write(data[:100])
		h.Write(data[100:])
		sink = h.Sum()
	}); n != 0 {
		t.Errorf("Hasher.Write/Sum allocate %v times per round, want 0", n)
	}
	_ = sink
}

// BenchmarkKernel is the kernel micro-benchmark CHANGES.md quotes: each
// kernel this machine has, at 64 B (a recipe-tree node), 3 KiB (a chunk) and
// 1 MiB (a restore stream), then 3 KiB on every P at once.
func BenchmarkKernel(b *testing.B) {
	kernels := []bool{false}
	if haveSHANI {
		kernels = append(kernels, true)
	}
	for _, shaNI := range kernels {
		setKernel(b, shaNI)
		for _, size := range []int{64, 3072, 1 << 20} {
			data := pattern(size, 6)
			b.Run(fmt.Sprintf("%s/%dB", Kernel(), size), func(b *testing.B) {
				b.SetBytes(int64(size))
				for i := 0; i < b.N; i++ {
					SumBytes(data)
				}
			})
		}
		b.Run(Kernel()+"/3072B-parallel", func(b *testing.B) {
			b.SetBytes(3072)
			b.RunParallel(func(pb *testing.PB) {
				data := pattern(3072, 7)
				for pb.Next() {
					SumBytes(data)
				}
			})
		})
	}
}
