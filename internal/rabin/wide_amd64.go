//go:build amd64 && !purego

package rabin

import "mhdedup/internal/hashutil"

// useWide selects the byte-sliced kernel, once: CPUID must report AVX-512
// F, BW and VBMI, GFNI and BMI2, and XCR0 that the OS saves the opmask and
// ZMM state. Nothing but tests writes it again.
var useWide = func() bool {
	maxLeaf, _, _, _ := hashutil.CPUID(0, 0)
	_, _, ecx1, _ := hashutil.CPUID(1, 0)
	_, ebx7, ecx7, _ := hashutil.CPUID(7, 0)
	const osxsave, ebx, ecx = 1 << 27, 1<<8 | 1<<16 | 1<<30, 1<<1 | 1<<8 // BMI2, F, BW; VBMI, GFNI
	if maxLeaf < 7 || ecx1&osxsave == 0 || ebx7&ebx != ebx || ecx7&ecx != ecx {
		return false
	}
	xcr0, _ := hashutil.XGETBV()
	return xcr0&0xe6 == 0xe6 // SSE, AVX, opmask, the ZMM upper halves, ZMM16–31
}()

// wideTile rolls one tile of the byte-sliced scan (wide_amd64.s).
//
//go:noescape
func wideTile(st *wideState, t *wideTabs, rows *byte, q, at, n, size int, mask uint64) int
