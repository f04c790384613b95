//go:build amd64 && !purego

package rabin

import "testing"

// haveWide is what the CPU offers, whatever a test has flipped useWide to.
var haveWide = useWide

// setKernel points Candidates at one kernel for the rest of t: the
// byte-sliced scan where it applies, or the four-lane scan always.
func setKernel(t testing.TB, wide bool) {
	prev := useWide
	useWide = wide
	t.Cleanup(func() { useWide = prev })
}
