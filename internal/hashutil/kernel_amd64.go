//go:build amd64 && !purego

package hashutil

// useSHANI selects the kernel, once: true when CPUID reports the SHA
// extensions and the SSSE3 / SSE4.1 instructions the block function uses
// beside them (PSHUFB; PINSRD, PEXTRD). Nothing but tests writes it again.
var useSHANI = cpuHasSHANI()

func cpuHasSHANI() bool {
	maxLeaf, _, _, _ := CPUID(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := CPUID(1, 0)
	_, ebx7, _, _ := CPUID(7, 0)
	const ssse3, sse41, sha = 1 << 9, 1 << 19, 1 << 29
	return ecx1&ssse3 != 0 && ecx1&sse41 != 0 && ebx7&sha != 0
}

// block folds the whole 64-byte blocks of p, at least one and nothing but,
// into h (sha1block_amd64.s).
//
//go:noescape
func block(h *[5]uint32, p []byte)

// CPUID and XGETBV (XCR0) are the one reader of the CPU's features: the SHA-1
// kernel here and the Rabin scan's (internal/rabin) are chosen from them.
func CPUID(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func XGETBV() (eax, edx uint32)
