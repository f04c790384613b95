package rabin

// Window.Roll is the oracle of Window.Candidates: a scan of buf[from:] must
// report exactly the positions a per-byte Roll loop reports and leave the
// window — digest and ring — exactly where that loop leaves it, whatever the
// block length (ring path, one lane, four lanes and a remainder), however
// the block is split across calls, and whatever dst already held.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// rollCandidates is the oracle: ref is loaded with the window in front of
// from (as Candidates with cont unset takes it to be) unless cont is set,
// then buf[from:] is rolled through it byte by byte.
func rollCandidates(ref *Window, buf []byte, from int, mask Poly, cont bool) []int {
	if !cont {
		ref.Reset()
		for _, b := range buf[from-ref.size : from] {
			ref.Roll(b)
		}
	}
	var want []int
	for i := from; i < len(buf); i++ {
		if ref.Roll(buf[i])&mask == mask {
			want = append(want, i)
		}
	}
	return want
}

// assertSameWindow fails unless w and ref hold the same digest and the same
// ring: equal fingerprints now and after each of size further bytes,
// which evict everything either ring held.
func assertSameWindow(t *testing.T, label string, w, ref *Window) {
	t.Helper()
	for i := 0; i <= ref.size; i++ {
		if w.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("%s: fingerprint %#x, Roll's is %#x (%d bytes after the scan)",
				label, uint64(w.Fingerprint()), uint64(ref.Fingerprint()), i)
		}
		w.Roll(byte(i * 37))
		ref.Roll(byte(i * 37))
	}
}

// testPolys are the moduli the differential tests run over.
var testPolys = func() [3]Poly {
	ps := [3]Poly{DefaultPoly}
	for i := 1; i < len(ps); i++ {
		p, err := RandomPoly(int64(i))
		if err != nil {
			panic(err)
		}
		ps[i] = p
	}
	return ps
}()

// TestCandidatesMatchRoll: one scan of 64 KiB reports exactly the positions
// Roll matches at and ends on Roll's digest, for masks of several widths.
func TestCandidatesMatchRoll(t *testing.T) {
	const size = DefaultWindowSize
	data := make([]byte, 1<<16)
	rand.New(rand.NewSource(73)).Read(data)
	for _, maskBits := range []uint{0, 1, 4, 8, 11} {
		mask := Poly(1)<<maskBits - 1
		ref, w := mustWindow(t, DefaultPoly, size), mustWindow(t, DefaultPoly, size)
		want := rollCandidates(ref, data, size, mask, false)
		got := w.Candidates(nil, data, size, mask, false)
		if !slices.Equal(got, want) {
			t.Fatalf("mask=%d bits: %d candidates, Roll matches %d times", maskBits, len(got), len(want))
		}
		assertSameWindow(t, fmt.Sprintf("mask=%d bits", maskBits), w, ref)
	}
}

// TestCandidatesAnySplitMatchesRoll: scanning a buffer block by block, each
// scan continuing the last, reports what one scan of the whole reports and
// leaves Roll's digest after every block — for several window sizes and
// random block lengths on both sides of the lane split.
func TestCandidatesAnySplitMatchesRoll(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	data := make([]byte, 1<<15)
	rng.Read(data)
	const mask = Poly(1)<<5 - 1
	for _, size := range []int{1, 16, 48, 64} {
		ref, w := mustWindow(t, DefaultPoly, size), mustWindow(t, DefaultPoly, size)
		want := rollCandidates(ref, data, size, mask, false)
		ref.Reset()
		for _, b := range data[:size] {
			ref.Roll(b)
		}
		var got []int
		for off := size; off < len(data); {
			n := rng.Intn(97) + 1
			if rng.Intn(4) == 0 {
				n = rng.Intn(16 * size)
			}
			end := min(off+n, len(data))
			got = w.Candidates(got, data[:end], off, mask, off > size)
			for _, b := range data[off:end] {
				ref.Roll(b)
			}
			if w.Fingerprint() != ref.Fingerprint() {
				t.Fatalf("size=%d: digest %#x after the block ending at %d, Roll's is %#x",
					size, uint64(w.Fingerprint()), end, uint64(ref.Fingerprint()))
			}
			off = end
		}
		if !slices.Equal(got, want) {
			t.Fatalf("size=%d: split scans found %d candidates, one scan %d", size, len(got), len(want))
		}
		assertSameWindow(t, fmt.Sprintf("size=%d", size), w, ref)
	}
}

// TestCandidatesMatchRollAroundWindowSize: any interleaving of Roll and
// continued or fresh Candidates calls leaves the window exactly where
// per-byte Roll leaves it and reports where Roll matches. Block lengths
// straddle the window size — where a continued scan hands over from rolling
// through the ring to rebuilding it from the slice — and, one time in four,
// the lane split; the ring itself is checked by the steps that follow,
// which evict what earlier steps rolled in.
func TestCandidatesMatchRollAroundWindowSize(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, size := range []int{1, 2, 16, 48, 64} {
		ref, w := mustWindow(t, DefaultPoly, size), mustWindow(t, DefaultPoly, size)
		hist := make([]byte, size) // the last size bytes rolled: what the window holds
		for step := 0; step < 3000; step++ {
			n := size + rng.Intn(5) - 2
			if rng.Intn(4) == 0 {
				n = rng.Intn(10*size + 2)
			}
			buf := append(slices.Clone(hist), make([]byte, max(n, 0))...)
			rng.Read(buf[size:])
			switch rng.Intn(3) {
			case 0:
				for _, b := range buf[size:] {
					w.Roll(b)
					ref.Roll(b)
				}
			default:
				cont := rng.Intn(2) == 0
				mask := Poly(1)<<uint(rng.Intn(8)) - 1
				got := w.Candidates(nil, buf, size, mask, cont)
				// A fresh scan reloads the window with what it already
				// holds, so the oracle continues either way.
				if want := rollCandidates(ref, buf, size, mask, true); !slices.Equal(got, want) {
					t.Fatalf("size=%d step %d: Candidates(%d bytes, %#x, cont=%v) = %v; Roll matches at %v",
						size, step, n, uint64(mask), cont, got, want)
				}
			}
			if w.Fingerprint() != ref.Fingerprint() {
				t.Fatalf("size=%d step %d: digest %#x after a %d-byte block, Roll's is %#x",
					size, step, uint64(w.Fingerprint()), n, uint64(ref.Fingerprint()))
			}
			hist = buf[len(buf)-size:]
		}
	}
}

// TestCandidatesLaneEdges builds inputs whose only candidates sit where the
// lane split could lose or double one — the first and last byte of each
// lane, the first byte scanned, the last byte of the buffer — and demands
// exactly those back, for scan lengths on both sides of the one-lane
// threshold and every remainder the split by four can leave.
func TestCandidatesLaneEdges(t *testing.T) {
	const size = 16
	const mask = Poly(1)<<4 - 1
	threshold := lanes * minLane * size
	var lens []int
	for _, n := range []int{1, 2, 5, threshold - 4, threshold, 8 * threshold} {
		for r := 0; r < lanes; r++ {
			lens = append(lens, n+r)
		}
	}
	for _, n := range lens {
		for _, from := range []int{size, size + 5} {
			label := fmt.Sprintf("from=%d/n=%d", from, n)
			q := n / lanes
			targets := map[int]bool{from: true, from + n - 1: true}
			for k := 0; k < lanes && q > 0; k++ {
				targets[from+k*q] = true
				targets[from+(k+1)*q-1] = true
			}
			// Choose each byte in turn so that its position is a candidate
			// exactly when it is a target; a byte only moves fingerprints
			// from its own position on, so earlier choices stand.
			buf := make([]byte, from+n)
			rand.New(rand.NewSource(int64(n))).Read(buf[:from])
			var want []int
			for i := from; i < len(buf); i++ {
				for b := 0; ; b++ {
					if b == 256 {
						t.Fatalf("%s: no byte makes position %d a candidate: %v", label, i, targets[i])
					}
					buf[i] = byte(b)
					if fp := FingerprintOf(DefaultPoly, buf[i+1-size:i+1]); (fp&mask == mask) == targets[i] {
						break
					}
				}
				if targets[i] {
					want = append(want, i)
				}
			}
			ref, w := mustWindow(t, DefaultPoly, size), mustWindow(t, DefaultPoly, size)
			if oracle := rollCandidates(ref, buf, from, mask, false); !slices.Equal(oracle, want) {
				t.Fatalf("%s: fixture: Roll matches at %v, built for %v", label, oracle, want)
			}
			if got := w.Candidates(nil, buf, from, mask, false); !slices.Equal(got, want) {
				t.Fatalf("%s: candidates %v, want %v", label, got, want)
			}
			assertSameWindow(t, label, w, ref)
		}
	}
}

// TestCandidatesDoesNotAllocate: a scan into a dst with room allocates
// nothing — the lanes' hits are ordered inside dst itself.
func TestCandidatesDoesNotAllocate(t *testing.T) {
	w := mustWindow(t, DefaultPoly, DefaultWindowSize)
	buf := make([]byte, DefaultWindowSize+64<<10)
	rand.New(rand.NewSource(83)).Read(buf)
	const mask = Poly(1)<<6 - 1
	dst := make([]int, 0, len(buf))
	allocs := testing.AllocsPerRun(10, func() {
		dst = w.Candidates(dst[:0], buf, DefaultWindowSize, mask, false)
	})
	if allocs != 0 || len(dst) == 0 {
		t.Fatalf("%v allocations per scan (%d candidates), want 0", allocs, len(dst))
	}
}

// FuzzCandidatesMatchRoll is the same differential under fuzzing: arbitrary
// bytes, window size 1…64, three moduli, mask width 0…16 (width 0 makes every
// position a candidate), any from, a dst prefix that must survive, and a
// split schedule — one scan, the scans of consecutive blocks each continuing
// the last, and per-byte Roll must all agree, on the candidates and on the
// window they leave.
func FuzzCandidatesMatchRoll(f *testing.F) {
	rnd := make([]byte, 5000)
	rand.New(rand.NewSource(89)).Read(rnd)
	f.Add(rnd, uint8(47), uint8(0), uint8(5), uint16(0), uint8(3), int64(1))
	f.Add(rnd[:700], uint8(15), uint8(1), uint8(0), uint16(9), uint8(0), int64(2))
	f.Add(rnd[:300], uint8(0), uint8(2), uint8(16), uint16(299), uint8(1), int64(3))
	f.Add(make([]byte, 2000), uint8(63), uint8(0), uint8(1), uint16(64), uint8(2), int64(4))
	f.Add([]byte("short"), uint8(2), uint8(1), uint8(2), uint16(0), uint8(0), int64(5))
	f.Fuzz(func(t *testing.T, buf []byte, sizeSel, polySel, maskBits uint8, fromSel uint16, prefix uint8, seed int64) {
		size := 1 + int(sizeSel)%64
		if len(buf) < size {
			return
		}
		poly := testPolys[int(polySel)%len(testPolys)]
		mask := Poly(1)<<(uint(maskBits)%17) - 1
		from := size + int(fromSel)%(len(buf)-size+1)
		ref, one, split := mustWindow(t, poly, size), mustWindow(t, poly, size), mustWindow(t, poly, size)

		pre := make([]int, int(prefix)%8)
		for i := range pre {
			pre[i] = -1 - i
		}
		want := append(slices.Clone(pre), rollCandidates(ref, buf, from, mask, false)...)

		if got := one.Candidates(slices.Clone(pre), buf, from, mask, false); !slices.Equal(got, want) {
			t.Fatalf("one scan: %v, Roll matches at %v", got, want)
		}
		assertSameWindow(t, "one scan", one, ref)

		rng := rand.New(rand.NewSource(seed))
		got := slices.Clone(pre)
		for off := from; ; {
			end := min(off+rng.Intn(12*size+2), len(buf))
			if rng.Intn(8) == 0 {
				end = len(buf)
			}
			got = split.Candidates(got, buf[:end], off, mask, off > from)
			if off = end; off == len(buf) {
				break
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("split scans: %v, Roll matches at %v", got, want)
		}
		// ref was rolled size bytes on by the first comparison; bring it back.
		rollCandidates(ref, buf, from, mask, false)
		assertSameWindow(t, "split scans", split, ref)
	})
}

// BenchmarkCandidates1M times the scan of 1 MiB on four lanes (what
// Candidates picks for a block this long) and the same recurrence on one
// lane. ci.sh holds the ratio of the two, measured in one process, above
// 1.5: the lanes are there for that ratio and nothing else.
func BenchmarkCandidates1M(b *testing.B) {
	w, err := NewWindow(DefaultPoly, DefaultWindowSize)
	if err != nil {
		b.Fatal(err)
	}
	const size = DefaultWindowSize
	buf := make([]byte, size+1<<20)
	rand.New(rand.NewSource(1)).Read(buf)
	const mask = Poly(1)<<11 - 1
	dst := make([]int, 0, 4096)
	b.Run("lanes=4", func(b *testing.B) {
		b.SetBytes(1 << 20)
		for i := 0; i < b.N; i++ {
			dst = w.Candidates(dst[:0], buf, size, mask, false)
		}
	})
	b.Run("lanes=1", func(b *testing.B) {
		b.SetBytes(1 << 20)
		for i := 0; i < b.N; i++ {
			dst = dst[:0]
			d := w.tabs.warm(w.shift, buf[:size])
			for at, j := size, 0; at < len(buf); at += j + 1 {
				if d, j = w.tabs.run1(d, w.shift, buf[at-size:len(buf)-size], buf[at:], mask); j < 0 {
					break
				}
				dst = append(dst, at+j)
			}
		}
	})
}
