//go:build !arm

package lsm

import "syscall"

// SyncAsync implements WritableFile with sync_file_range(SYNC_FILE_RANGE_WRITE)
// over the whole file: writeback starts and the call does not wait for it. A
// kernel without the call gets a full fsync instead.
func (w *osWritableFile) SyncAsync() error {
	rc, err := w.f.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SyncFileRange(int(fd), 0, 0, 0x2) // SYNC_FILE_RANGE_WRITE
	}); err != nil {
		return err
	}
	if serr == syscall.ENOSYS {
		return w.f.Sync()
	}
	return serr
}
