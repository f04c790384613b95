//go:build !amd64 || purego

package rabin

// Off amd64, and under -tags purego, Candidates has no byte-sliced kernel.
const useWide = false

func wideTile(*wideState, *wideTabs, *byte, int, int, int, int, uint64) int { panic("unreachable") }
