//go:build !amd64 || purego

package rabin

import "testing"

const haveWide = false

func setKernel(testing.TB, bool) {}
