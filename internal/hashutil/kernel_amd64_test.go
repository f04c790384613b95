//go:build amd64 && !purego

package hashutil

import "testing"

// haveSHANI is what the CPU offers, whatever a test has flipped useSHANI to.
var haveSHANI = useSHANI

// setKernel points every entry point at one kernel for the rest of t.
func setKernel(t testing.TB, shaNI bool) {
	prev := useSHANI
	useSHANI = shaNI
	t.Cleanup(func() { useSHANI = prev })
}
