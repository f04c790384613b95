//go:build amd64 && !purego

package hashutil

import "testing"

// haveSHANI and haveLanes are what the CPU offers, whatever a test has
// flipped useSHANI and useLanes to.
var haveSHANI, haveLanes = useSHANI, useLanes

// setKernel points every entry point at one kernel for the rest of t: the
// SHA-NI kernel or crypto/sha1, and SumRuns' lanes beside SHA-NI or not.
func setKernel(t testing.TB, shaNI, lanes bool) {
	prevSHANI, prevLanes := useSHANI, useLanes
	useSHANI, useLanes = shaNI, lanes && shaNI && haveLanes
	t.Cleanup(func() { useSHANI, useLanes = prevSHANI, prevLanes })
}
