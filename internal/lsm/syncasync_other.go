//go:build !linux || arm

package lsm

// SyncAsync implements WritableFile with a full fsync: this platform has no
// sync_file_range.
func (w *osWritableFile) SyncAsync() error { return w.f.Sync() }
