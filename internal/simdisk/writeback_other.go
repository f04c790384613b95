//go:build !linux || purego

package simdisk

import "os"

// startWriteBack is a hint only Linux takes (see writeback_linux.go);
// -tags purego builds this side there too, so the suite can run without it.
func startWriteBack(*os.File, int64, int64) {}
