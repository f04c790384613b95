//go:build !amd64 || purego

package hashutil

// Off amd64 (and under -tags purego) there is one kernel, crypto/sha1 —
// hardware SHA-1 on arm64 already — and the digest's code paths compile away.
const useSHANI = false

func block(*[5]uint32, []byte) { panic("hashutil: no block function on this platform") }
