//go:build amd64 && !purego

package hashutil

// useLanes selects SumRuns' 16-lane kernel, once: AVX-512 F and BW, beside
// the SHA extensions that hash what the lanes leave. Nothing but tests
// writes it again.
var useLanes = useSHANI && CPUHas(0, 1<<16|1<<30, 0, true) // AVX-512 F, BW

// blocks16 folds n blocks of each of 16 messages into h (lanes_amd64.s).
//
//go:noescape
func blocks16(h *[5][16]uint32, p *[16]*byte, n int)
