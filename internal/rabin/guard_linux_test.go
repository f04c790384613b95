//go:build linux

package rabin

import (
	"math/rand"
	"slices"
	"syscall"
	"testing"
)

// TestCandidatesReadsNothingPastBuf ends every scanned block on the last
// byte before a page the process may not read, so a scan that loads a byte
// past its buffer faults: the 64-lane kernel's last tile stops in the middle
// of its rows, and its loads must stop there too.
func TestCandidatesReadsNothingPastBuf(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 4*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skip("mmap:", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[3*page:], syscall.PROT_NONE); err != nil {
		t.Skip("mprotect:", err)
	}
	usable := mem[:3*page]
	rand.New(rand.NewSource(107)).Read(usable)
	const mask = Poly(1)<<5 - 1
	eachKernel(t, func(t *testing.T) {
		for _, size := range []int{1, DefaultWindowSize, 64} {
			for _, n := range []int{wideLanes * wideMinLane, 4093, 3*page - size} {
				buf := usable[len(usable)-size-n:]
				want := rollCandidates(mustWindow(t, DefaultPoly, size), buf, size, mask, false)
				if got := mustWindow(t, DefaultPoly, size).Candidates(nil, buf, size, mask, false); !slices.Equal(got, want) {
					t.Fatalf("size=%d n=%d: candidates differ from Roll's", size, n)
				}
			}
		}
	})
}
