//go:build amd64 && !purego

package rabin

import "mhdedup/internal/hashutil"

// useWide selects the byte-sliced kernel, once: AVX-512 F, BW and VBMI, GFNI
// and BMI2, and the OS's ZMM state. Nothing but tests writes it again.
var useWide = hashutil.CPUHas(0, 1<<8|1<<16|1<<30, 1<<1|1<<8, true) // BMI2, F, BW; VBMI, GFNI

// wideTile rolls one tile of the byte-sliced scan (wide_amd64.s).
//
//go:noescape
func wideTile(st *wideState, t *wideTabs, rows *byte, q, at, n, size int, mask uint64) int
