package lsm

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// AccessHint tells the environment how a read or write relates to prior I/O
// on the same file, so the simulation can price sequential and random access
// differently.
type AccessHint int

const (
	// HintRandom marks point accesses (index lookups, Get block reads).
	HintRandom AccessHint = iota
	// HintSequential marks streaming access (WAL append, compaction scans).
	HintSequential
)

// IOClass separates foreground I/O (charged to the issuing operation) from
// background I/O (flush/compaction traffic, charged to the background
// bandwidth model).
type IOClass int

const (
	// IOForeground is user-facing I/O: WAL writes, Get/iterator reads.
	IOForeground IOClass = iota
	// IOBackground is flush/compaction I/O through the page cache.
	IOBackground
	// IOBackgroundDirect is flush/compaction I/O issued with O_DIRECT
	// (use_direct_io_for_flush_and_compaction): it bypasses — and does not
	// pollute — the OS page cache.
	IOBackgroundDirect
)

// WritableFile is an append-only file handle.
type WritableFile interface {
	// Append writes p at the end of the file.
	Append(p []byte) error
	// Sync makes previously appended data durable.
	Sync() error
	// Close releases the handle (without implying Sync).
	Close() error
}

// asyncSyncer is implemented by files that support a non-blocking range
// sync (sync_file_range semantics): dirty pages are queued for writeback
// without stalling the writer. Used by the non-strict bytes_per_sync path.
type asyncSyncer interface {
	SyncAsync() error
}

// syncMaybeAsync issues a cheap async sync when supported, a full sync
// otherwise.
func syncMaybeAsync(f WritableFile) error {
	if a, ok := f.(asyncSyncer); ok {
		return a.SyncAsync()
	}
	return f.Sync()
}

// RandomAccessFile is a read-only positional file handle.
type RandomAccessFile interface {
	// ReadAt fills p from offset off; short reads are errors (io.ReadFull
	// semantics). hint prices the access in simulation.
	ReadAt(p []byte, off int64, hint AccessHint) error
	// Size returns the file length in bytes.
	Size() (int64, error)
	// Close releases the handle.
	Close() error
}

// Env abstracts the filesystem and clock under the engine, in the spirit of
// rocksdb::Env. OSEnv talks to the operating system; SimEnv is an in-memory,
// virtual-time implementation used by the paper-reproduction experiments.
type Env interface {
	// NewWritableFile creates (truncating) a file for appending.
	NewWritableFile(name string, class IOClass) (WritableFile, error)
	// NewRandomAccessFile opens a file for positional reads.
	NewRandomAccessFile(name string, class IOClass) (RandomAccessFile, error)
	// Remove deletes a file.
	Remove(name string) error
	// Rename atomically moves a file.
	Rename(oldName, newName string) error
	// FileExists reports whether the file exists.
	FileExists(name string) bool
	// FileSize returns a file's length.
	FileSize(name string) (int64, error)
	// List returns the file names directly inside dir, sorted.
	List(dir string) ([]string, error)
	// MkdirAll ensures dir exists.
	MkdirAll(dir string) error
	// SyncDir makes directory entries (creates, renames, removals inside
	// dir) durable. In-memory environments treat it as a no-op.
	SyncDir(dir string) error

	// Now returns the environment's notion of elapsed time since start.
	Now() time.Duration
	// ChargeCPU accounts d of compute time to the current operation. In
	// OSEnv it is a no-op (real CPU time passes by itself).
	ChargeCPU(d time.Duration)
	// ChargeStall accounts a write-controller delay: virtual in SimEnv,
	// a real sleep in OSEnv.
	ChargeStall(d time.Duration)
}

// OSEnv is the production environment: real files, real clock.
type OSEnv struct {
	start time.Time
}

// NewOSEnv returns an Env backed by the operating system.
func NewOSEnv() *OSEnv { return &OSEnv{start: time.Now()} }

type osWritableFile struct{ f *os.File }

func (w *osWritableFile) Append(p []byte) error { _, err := w.f.Write(p); return err }
func (w *osWritableFile) Sync() error           { return w.f.Sync() }
func (w *osWritableFile) Close() error          { return w.f.Close() }

type osRandomFile struct{ f *os.File }

func (r *osRandomFile) ReadAt(p []byte, off int64, _ AccessHint) error {
	n, err := r.f.ReadAt(p, off)
	if err == io.EOF && n == len(p) {
		err = nil
	}
	return err
}

func (r *osRandomFile) Size() (int64, error) {
	st, err := r.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (r *osRandomFile) Close() error { return r.f.Close() }

// NewWritableFile implements Env.
func (e *OSEnv) NewWritableFile(name string, _ IOClass) (WritableFile, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return &osWritableFile{f: f}, nil
}

// NewRandomAccessFile implements Env.
func (e *OSEnv) NewRandomAccessFile(name string, _ IOClass) (RandomAccessFile, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return &osRandomFile{f: f}, nil
}

// Remove implements Env.
func (e *OSEnv) Remove(name string) error { return os.Remove(name) }

// Rename implements Env.
func (e *OSEnv) Rename(oldName, newName string) error { return os.Rename(oldName, newName) }

// FileExists implements Env.
func (e *OSEnv) FileExists(name string) bool {
	_, err := os.Stat(name)
	return err == nil
}

// FileSize implements Env.
func (e *OSEnv) FileSize(name string) (int64, error) {
	st, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// List implements Env.
func (e *OSEnv) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, ent := range ents {
		if !ent.IsDir() {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements Env.
func (e *OSEnv) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// SyncDir implements Env by fsyncing the directory fd, making renames and
// unlinks inside it durable.
func (e *OSEnv) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Now implements Env (wall-clock time since construction).
func (e *OSEnv) Now() time.Duration { return time.Since(e.start) }

// ChargeCPU implements Env (no-op: real time passes on its own).
func (e *OSEnv) ChargeCPU(time.Duration) {}

// ChargeStall implements Env by actually sleeping.
func (e *OSEnv) ChargeStall(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// cleanPath normalizes a path for the in-memory filesystem.
func cleanPath(p string) string { return filepath.Clean(p) }

var errShortRead = fmt.Errorf("lsm: short read")
