package hashutil

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// eachRunKernel runs f with SumRuns on every kernel this machine has:
// crypto/sha1, SHA-NI one run at a time, and SHA-NI with the lanes.
func eachRunKernel(t *testing.T, f func(t *testing.T)) {
	kernels := [][2]bool{{false, false}}
	if haveSHANI {
		kernels = append(kernels, [2]bool{true, false})
	}
	if haveLanes {
		kernels = append(kernels, [2]bool{true, true})
	}
	for _, k := range kernels {
		setKernel(t, k[0], k[1])
		t.Run(Kernel(), func(t *testing.T) {
			t.Logf("kernel: %s", Kernel())
			f(t)
		})
	}
	if !haveLanes {
		t.Log("no lane kernel on this CPU or build")
	}
}

// checkRuns holds SumRuns to crypto/sha1 over each run's joined parts, and
// checks that it writes no sum past the runs.
func checkRuns(t *testing.T, runs [][][]byte) {
	t.Helper()
	sums := make([]Sum, len(runs)+1)
	sentinel := Sum{0xde, 0xad}
	sums[len(runs)] = sentinel
	SumRuns(runs, sums)
	for i, run := range runs {
		if want := oracle(bytes.Join(run, nil)); sums[i] != want {
			lens := make([]int, len(run))
			for j, p := range run {
				lens[j] = len(p)
			}
			t.Fatalf("run %d of %d, parts %v: %s, crypto/sha1 says %s", i, len(runs), lens, sums[i].Hex(), want.Hex())
		}
	}
	if sums[len(runs)] != sentinel {
		t.Fatalf("SumRuns wrote past its %d runs", len(runs))
	}
}

// partsOf cuts data, from off on, into parts of the given lengths.
func partsOf(data []byte, off int, lens ...int) [][]byte {
	var run [][]byte
	for _, n := range lens {
		run = append(run, data[off:off+n])
		off += n
	}
	return run
}

func TestSumRunsTable(t *testing.T) {
	data := pattern(1<<20+4096, 8)
	edges := []int{0, 1, 55, 56, 63, 64, 65, 119, 120, 127, 128, 129, 200}
	eachRunKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		// 0 to 40 runs of 0 to 5 parts of 0 to 200 bytes.
		for n := 0; n <= 40; n++ {
			for trial := 0; trial < 8; trial++ {
				runs := make([][][]byte, n)
				for i := range runs {
					lens := make([]int, rng.Intn(6))
					for j := range lens {
						lens[j] = rng.Intn(201)
						if rng.Intn(3) == 0 {
							lens[j] = edges[rng.Intn(len(edges))]
						}
					}
					runs[i] = partsOf(data, rng.Intn(4096), lens...)
				}
				checkRuns(t, runs)
			}
		}
		// Each edge as one part, as two parts split anywhere, and as 17
		// runs so that every lane pads it: 56 to 63 bytes take two padding
		// blocks, and a message of exactly 64 takes a block of padding alone.
		for _, n := range edges {
			for split := 0; split <= n; split += 1 + n/8 {
				runs := make([][][]byte, 17)
				for i := range runs {
					runs[i] = partsOf(data, i, split, n-split)
				}
				runs[3] = partsOf(data, 3, n)
				checkRuns(t, runs)
			}
		}
		// Empty runs, runs of empty parts, and fewer runs than minLanes,
		// among and beside long ones.
		long := partsOf(data, 7, 4096, 0, 3000, 1)
		checkRuns(t, [][][]byte{nil, {}, {nil, {}}, long})
		checkRuns(t, [][][]byte{long, nil, long, {nil}, long, long, {}})
		for n := 1; n < minLanes; n++ {
			runs := make([][][]byte, n)
			for i := range runs {
				runs[i] = partsOf(data, i, 1000+i)
			}
			checkRuns(t, runs)
		}
		// Chunk-sized runs with one megabyte among them, merged runs of
		// many unaligned chunks, and a part that starts inside a block.
		var runs [][][]byte
		for i := 0; i < 40; i++ {
			runs = append(runs, partsOf(data, i, 1536+rng.Intn(3584)))
		}
		runs[5] = partsOf(data, 0, 1<<20)
		checkRuns(t, runs)
		runs = runs[:0]
		for i := 0; i < 24; i++ {
			lens := make([]int, 1+rng.Intn(63))
			for j := range lens {
				lens[j] = 1 + rng.Intn(700)
			}
			runs = append(runs, partsOf(data, rng.Intn(64), lens...))
		}
		checkRuns(t, runs)
	})
}

// The shape's bytes cut the data: zero ends a run, anything else is a part
// of three times that many bytes, taken from the data cyclically.
func FuzzSumRunsMatchesStdlib(f *testing.F) {
	f.Add(pattern(4096, 10), []byte{1, 0, 21, 22, 0, 19, 0, 20, 0, 21, 0, 22, 0})
	f.Add(pattern(64, 11), []byte{255, 255, 255, 0, 1, 0, 0, 85, 0, 18, 19, 0})
	f.Add([]byte{}, []byte{0, 0, 0, 0, 0, 7})
	f.Fuzz(func(t *testing.T, data, shape []byte) {
		src := bytes.Repeat(data, 1+3*255*len(shape)/max(len(data), 1))
		var runs [][][]byte
		var run [][]byte
		off := 0
		for _, b := range shape {
			if b == 0 {
				runs, run = append(runs, run), nil
				continue
			}
			n := min(3*int(b), len(src)-off)
			run = append(run, src[off:off+n])
			off = (off + n) % max(len(data), 1)
		}
		runs = append(runs, run)
		eachRunKernel(t, func(t *testing.T) { checkRuns(t, runs) })
	})
}

// The lanes keep their state on the stack: a batch of one-part runs
// allocates nothing.
func TestSumRunsDoesNotAllocate(t *testing.T) {
	if !haveLanes {
		t.Skip("no lane kernel on this CPU or build")
	}
	setKernel(t, true, true)
	runs, sums := chunkRuns(11)
	if n := testing.AllocsPerRun(20, func() { SumRuns(runs, sums) }); n != 0 {
		t.Errorf("SumRuns allocates %v times per batch, want 0", n)
	}
}

// chunkRuns is one pipeline batch: 128 one-part runs of 1.5 to 5 KiB.
func chunkRuns(seed int64) ([][][]byte, []Sum) {
	rng := rand.New(rand.NewSource(seed))
	runs := make([][][]byte, 128)
	for i := range runs {
		runs[i] = [][]byte{pattern(1536+rng.Intn(3585), seed+int64(i))}
	}
	return runs, make([]Sum, len(runs))
}

// BenchmarkSumRuns is what ci.sh's lane ratio reads: one batch of chunks
// through SumRuns on the lanes, and through SumBytes a chunk at a time.
func BenchmarkSumRuns(b *testing.B) {
	runs, sums := chunkRuns(12)
	var size int64
	for _, run := range runs {
		size += int64(len(run[0]))
	}
	for _, lanes := range []bool{true, false} {
		b.Run(fmt.Sprintf("lanes=%v", lanes), func(b *testing.B) {
			if lanes && !haveLanes {
				b.Skip("no lane kernel on this CPU or build")
			}
			setKernel(b, haveSHANI, lanes)
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				if lanes {
					SumRuns(runs, sums)
					continue
				}
				for j, run := range runs {
					sums[j] = SumBytes(run[0])
				}
			}
		})
	}
}
