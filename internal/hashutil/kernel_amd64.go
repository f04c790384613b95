//go:build amd64 && !purego

package hashutil

// useSHANI selects the kernel, once: true when CPUID reports the SHA
// extensions and the SSSE3 / SSE4.1 instructions the block function uses
// beside them (PSHUFB; PINSRD, PEXTRD). Nothing but tests writes it again.
var useSHANI = CPUHas(1<<9|1<<19, 1<<29, 0, false) // SSSE3, SSE4.1; SHA

// block folds the whole 64-byte blocks of p, at least one and nothing but,
// into h (sha1block_amd64.s).
//
//go:noescape
func block(h *[5]uint32, p []byte)

// CPUHas reports whether CPUID offers every feature bit set in ecx1 (leaf
// 1) and in ebx7 and ecx7 (leaf 7) and, with zmm, whether XCR0 says the OS
// saves the opmask and ZMM state. Every kernel here and in internal/rabin
// is chosen by it, once.
func CPUHas(ecx1, ebx7, ecx7 uint32, zmm bool) bool {
	if zmm {
		ecx1 |= 1 << 27 // OSXSAVE: XGETBV faults without it
	}
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, c1, _ := cpuid(1, 0)
	_, b7, c7, _ := cpuid(7, 0)
	if maxLeaf < 7 || c1&ecx1 != ecx1 || b7&ebx7 != ebx7 || c7&ecx7 != ecx7 {
		return false
	}
	xcr0, _ := xgetbv()
	return !zmm || xcr0&0xe6 == 0xe6 // SSE, AVX, opmask, the ZMM upper halves, ZMM16–31
}

// cpuid and xgetbv (XCR0) are the one reader of the CPU's features.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)
