//go:build !amd64 || purego

package hashutil

import "testing"

const haveSHANI = false

func setKernel(testing.TB, bool) {}
