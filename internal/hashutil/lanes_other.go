//go:build !amd64 || purego

package hashutil

// Off amd64, and under -tags purego, SumRuns hashes one run at a time.
const useLanes = false

func blocks16(*[5][16]uint32, *[16]*byte, int) { panic("unreachable") }
