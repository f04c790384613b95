//go:build linux && !purego

package simdisk

import (
	"os"
	"syscall"
)

// startWriteBack asks the kernel to begin writing the dirty pages of
// f[off, off+n) without waiting for them (SYNC_FILE_RANGE_WRITE), so the
// fsync a commit waits for finds most of its work already on the way. It is
// a hint and nothing rests on it: durability is the fsync's alone.
func startWriteBack(f *os.File, off, n int64) {
	const syncFileRangeWrite = 2
	if rc, err := f.SyscallConn(); err == nil {
		rc.Control(func(fd uintptr) { syscall.SyncFileRange(int(fd), off, n, syncFileRangeWrite) })
	}
}
