package rabin_test

// The chunker's identity gates (internal/chunker's parity matrix, golden cut
// vectors and FuzzChunkerParity) compare FastRabin's cuts with the per-byte
// reference on whichever kernel Candidates picks here. This test says which
// one that is: on streams of several 64 KiB fill blocks, read whole, 4093
// bytes and 64 KiB ± 1 at a time, the chunker cuts the same on both kernels,
// and its cuts move when the byte-sliced kernel is broken — so on a CPU that
// has it, the byte-sliced kernel is what cut them.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"mhdedup/internal/chunker"
	"mhdedup/internal/rabin"
)

// sizedReader serves at most max bytes per Read.
type sizedReader struct {
	r   io.Reader
	max int
}

func (s sizedReader) Read(p []byte) (int, error) { return s.r.Read(p[:min(len(p), s.max)]) }

func cutOffsets(t *testing.T, data []byte, readMax int, p chunker.Params) []int64 {
	t.Helper()
	c, err := chunker.NewCDC(sizedReader{bytes.NewReader(data), readMax}, p)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	for {
		ch, err := c.Next()
		if err == io.EOF {
			return offs
		}
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, ch.Off+ch.Size())
	}
}

func TestChunkerCutsComeFromWideKernel(t *testing.T) {
	if !rabin.HaveWide {
		t.Skip("no byte-sliced kernel on this CPU or build")
	}
	data := make([]byte, 3<<16+4093)
	rand.New(rand.NewSource(103)).Read(data)
	for _, p := range []chunker.Params{{ECS: 4096}, {ECS: 1024}} {
		for _, readMax := range []int{len(data), 4093, 64<<10 - 1, 64<<10 + 1} {
			t.Run(fmt.Sprintf("ecs=%d/read=%d", p.ECS, readMax), func(t *testing.T) {
				rabin.SetKernel(t, false)
				four := cutOffsets(t, data, readMax, p)
				rabin.SetKernel(t, true)
				if wide := cutOffsets(t, data, readMax, p); !slices.Equal(wide, four) {
					t.Fatalf("byte-sliced kernel cut %d chunks, four lanes %d", len(wide), len(four))
				}
				rabin.BreakWide(t, rabin.DefaultPoly, rabin.DefaultWindowSize)
				if broken := cutOffsets(t, data, readMax, p); slices.Equal(broken, four) {
					t.Fatal("cuts did not move with the byte-sliced kernel broken: it did not cut them")
				}
			})
		}
	}
}
