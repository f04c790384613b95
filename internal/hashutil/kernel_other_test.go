//go:build !amd64 || purego

package hashutil

import "testing"

const haveSHANI, haveLanes = false, false

func setKernel(testing.TB, bool, bool) {}
