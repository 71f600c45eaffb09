package lsm

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// FaultOp names the I/O operation class a FaultRule applies to.
type FaultOp int

const (
	// FaultRead targets RandomAccessFile.ReadAt.
	FaultRead FaultOp = iota
	// FaultWrite targets WritableFile.Append.
	FaultWrite
	// FaultSync targets WritableFile.Sync/SyncAsync and Env.SyncDir.
	FaultSync
	// FaultRename targets Env.Rename.
	FaultRename
	// FaultRemove targets Env.Remove.
	FaultRemove
)

func (op FaultOp) String() string {
	switch op {
	case FaultRead:
		return "read"
	case FaultWrite:
		return "write"
	case FaultSync:
		return "sync"
	case FaultRename:
		return "rename"
	case FaultRemove:
		return "remove"
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// ErrInjected is the sentinel all injected faults match via errors.Is.
var ErrInjected = errors.New("lsm: injected fault")

// InjectedError is the error an armed FaultRule produces. Transient errors
// model recoverable conditions (ENOSPC cleared, link flap) and are eligible
// for automatic background-error recovery.
type InjectedError struct {
	Op        FaultOp
	Path      string
	transient bool
}

// Error implements error.
func (e *InjectedError) Error() string {
	kind := "permanent"
	if e.transient {
		kind = "transient"
	}
	return fmt.Sprintf("lsm: injected %s %s fault on %s", kind, e.Op, e.Path)
}

// Is reports a match for the ErrInjected sentinel.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// Transient reports whether the fault models a recoverable condition.
func (e *InjectedError) Transient() bool { return e.transient }

// FaultRule describes one injected failure mode. Zero-valued filters match
// everything: empty Pattern matches all paths, empty Classes all IOClasses,
// Prob <= 0 fires on every matching operation.
type FaultRule struct {
	// Op selects the operation kind the rule arms.
	Op FaultOp
	// Pattern is a substring the file path must contain (e.g. ".sst",
	// "MANIFEST", "CURRENT"). Empty matches every path.
	Pattern string
	// Classes restricts the rule to specific IOClasses (nil = all).
	Classes []IOClass
	// Prob is the firing probability in (0,1]; <= 0 means always fire.
	Prob float64
	// OneShot disarms the rule after its first hit.
	OneShot bool
	// Transient marks the produced error auto-recoverable (see DB.Resume).
	Transient bool
	// Err overrides the produced error (default: *InjectedError).
	Err error
	// TruncateFrac, for FaultWrite, appends only that fraction of the
	// buffer before failing — a torn write mid-record.
	TruncateFrac float64

	used bool
}

// faultFileState tracks durability bookkeeping for one file created through
// the fault env. Writes pass through to the base env immediately; size is the
// logical length and syncedLen the durable prefix a crash preserves.
type faultFileState struct {
	class     IOClass
	size      int64
	syncedLen int64
}

// FaultInjectionEnv wraps any Env (OSEnv or SimEnv) with crash and error
// injection in the spirit of RocksDB's FaultInjectionTestFS: it tracks the
// unsynced suffix of every file written through it, can drop those bytes to
// simulate power loss (DropUnsyncedData / Crash), and can fail individual
// operations according to FaultRules. A DB opened on one always runs on real
// goroutines and wall time, even over a SimEnv: OpenConfig engages the
// virtual-time runtime only when its Env is literally a *SimEnv.
type FaultInjectionEnv struct {
	base Env

	mu     sync.Mutex
	rng    *rand.Rand
	active bool
	rules  []*FaultRule
	files  map[string]*faultFileState
}

// NewFaultInjectionEnv wraps base. seed drives probabilistic rules and the
// torn-suffix lengths chosen by Crash.
func NewFaultInjectionEnv(base Env, seed int64) *FaultInjectionEnv {
	return &FaultInjectionEnv{
		base:   base,
		rng:    rand.New(rand.NewSource(seed)),
		active: true,
		files:  make(map[string]*faultFileState),
	}
}

// Base returns the wrapped environment.
func (e *FaultInjectionEnv) Base() Env { return e.base }

// Inject arms a fault rule.
func (e *FaultInjectionEnv) Inject(r FaultRule) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rc := r
	e.rules = append(e.rules, &rc)
}

// ClearFaults disarms all rules.
func (e *FaultInjectionEnv) ClearFaults() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rules = nil
}

// SetFilesystemActive toggles the filesystem. While inactive every operation
// fails, modeling the device disappearing at the instant of a crash.
func (e *FaultInjectionEnv) SetFilesystemActive(active bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.active = active
}

var errFSInactive = errors.New("lsm: filesystem deactivated (simulated crash)")

// checkLocked evaluates active state and armed rules for (op, path, class)
// and returns the injected error, if any. For FaultWrite rules with a
// TruncateFrac it returns the number of bytes to keep via keep.
func (e *FaultInjectionEnv) checkLocked(op FaultOp, path string, class IOClass, n int) (keep int, err error) {
	if !e.active {
		return 0, errFSInactive
	}
	for _, r := range e.rules {
		if r.used || r.Op != op {
			continue
		}
		if r.Pattern != "" && !strings.Contains(path, r.Pattern) {
			continue
		}
		if len(r.Classes) > 0 {
			ok := false
			for _, c := range r.Classes {
				if c == class {
					ok = true
					break
				}
			}
			if !ok {
				continue
			}
		}
		if r.Prob > 0 && e.rng.Float64() >= r.Prob {
			continue
		}
		if r.OneShot {
			r.used = true
		}
		err := r.Err
		if err == nil {
			err = &InjectedError{Op: op, Path: path, transient: r.Transient}
		}
		keep := 0
		if op == FaultWrite && r.TruncateFrac > 0 {
			keep = int(float64(n) * r.TruncateFrac)
			if keep > n {
				keep = n
			}
		}
		return keep, err
	}
	return 0, nil
}

// stateLocked returns (creating if needed) the tracking state for name.
func (e *FaultInjectionEnv) stateLocked(name string, class IOClass) *faultFileState {
	st, ok := e.files[name]
	if !ok {
		st = &faultFileState{class: class}
		e.files[name] = st
	}
	return st
}

// --- writable files ---

type faultWritableFile struct {
	env   *FaultInjectionEnv
	base  WritableFile
	name  string
	class IOClass
	st    *faultFileState
}

// Append implements WritableFile: the write passes through, but armed
// FaultWrite rules can fail it outright or tear it mid-buffer.
func (w *faultWritableFile) Append(p []byte) error {
	w.env.mu.Lock()
	keep, ferr := w.env.checkLocked(FaultWrite, w.name, w.class, len(p))
	if ferr != nil && keep > 0 {
		if err := w.base.Append(p[:keep]); err == nil {
			w.st.size += int64(keep)
		}
		w.env.mu.Unlock()
		return ferr
	}
	if ferr != nil {
		w.env.mu.Unlock()
		return ferr
	}
	err := w.base.Append(p)
	if err == nil {
		w.st.size += int64(len(p))
	}
	w.env.mu.Unlock()
	return err
}

// Sync implements WritableFile; on success the whole file becomes durable.
func (w *faultWritableFile) Sync() error {
	w.env.mu.Lock()
	if _, ferr := w.env.checkLocked(FaultSync, w.name, w.class, 0); ferr != nil {
		w.env.mu.Unlock()
		return ferr
	}
	err := w.base.Sync()
	if err == nil {
		w.st.syncedLen = w.st.size
	}
	w.env.mu.Unlock()
	return err
}

// SyncAsync implements asyncSyncer. Queued writeback is NOT durable: a crash
// may still drop the bytes, so syncedLen does not advance.
func (w *faultWritableFile) SyncAsync() error {
	w.env.mu.Lock()
	if _, ferr := w.env.checkLocked(FaultSync, w.name, w.class, 0); ferr != nil {
		w.env.mu.Unlock()
		return ferr
	}
	err := syncMaybeAsync(w.base)
	w.env.mu.Unlock()
	return err
}

// Close implements WritableFile. Closing does not sync: unsynced bytes stay
// droppable.
func (w *faultWritableFile) Close() error {
	w.env.mu.Lock()
	if !w.env.active {
		w.env.mu.Unlock()
		return errFSInactive
	}
	err := w.base.Close()
	w.env.mu.Unlock()
	return err
}

// --- random access files ---

type faultRandomFile struct {
	env   *FaultInjectionEnv
	base  RandomAccessFile
	name  string
	class IOClass
}

// ReadAt implements RandomAccessFile.
func (r *faultRandomFile) ReadAt(p []byte, off int64, hint AccessHint) error {
	r.env.mu.Lock()
	if _, ferr := r.env.checkLocked(FaultRead, r.name, r.class, len(p)); ferr != nil {
		r.env.mu.Unlock()
		return ferr
	}
	r.env.mu.Unlock()
	return r.base.ReadAt(p, off, hint)
}

// Size implements RandomAccessFile.
func (r *faultRandomFile) Size() (int64, error) { return r.base.Size() }

// Close implements RandomAccessFile.
func (r *faultRandomFile) Close() error { return r.base.Close() }

// --- Env interface ---

// NewWritableFile implements Env (truncating create, like the base envs).
func (e *FaultInjectionEnv) NewWritableFile(name string, class IOClass) (WritableFile, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.active {
		return nil, errFSInactive
	}
	f, err := e.base.NewWritableFile(name, class)
	if err != nil {
		return nil, err
	}
	name = cleanPath(name)
	st := &faultFileState{class: class}
	e.files[name] = st
	return &faultWritableFile{env: e, base: f, name: name, class: class, st: st}, nil
}

// NewRandomAccessFile implements Env.
func (e *FaultInjectionEnv) NewRandomAccessFile(name string, class IOClass) (RandomAccessFile, error) {
	e.mu.Lock()
	if !e.active {
		e.mu.Unlock()
		return nil, errFSInactive
	}
	e.mu.Unlock()
	f, err := e.base.NewRandomAccessFile(name, class)
	if err != nil {
		return nil, err
	}
	return &faultRandomFile{env: e, base: f, name: cleanPath(name), class: class}, nil
}

// Remove implements Env.
func (e *FaultInjectionEnv) Remove(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	name = cleanPath(name)
	if _, ferr := e.checkLocked(FaultRemove, name, IOForeground, 0); ferr != nil {
		return ferr
	}
	if err := e.base.Remove(name); err != nil {
		return err
	}
	delete(e.files, name)
	return nil
}

// Rename implements Env.
func (e *FaultInjectionEnv) Rename(oldName, newName string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	oldName, newName = cleanPath(oldName), cleanPath(newName)
	if _, ferr := e.checkLocked(FaultRename, newName, IOForeground, 0); ferr != nil {
		return ferr
	}
	if err := e.base.Rename(oldName, newName); err != nil {
		return err
	}
	if st, ok := e.files[oldName]; ok {
		delete(e.files, oldName)
		e.files[newName] = st
	}
	return nil
}

// FileExists implements Env.
func (e *FaultInjectionEnv) FileExists(name string) bool { return e.base.FileExists(name) }

// FileSize implements Env.
func (e *FaultInjectionEnv) FileSize(name string) (int64, error) {
	e.mu.Lock()
	if !e.active {
		e.mu.Unlock()
		return 0, errFSInactive
	}
	e.mu.Unlock()
	return e.base.FileSize(name)
}

// List implements Env.
func (e *FaultInjectionEnv) List(dir string) ([]string, error) {
	e.mu.Lock()
	if !e.active {
		e.mu.Unlock()
		return nil, errFSInactive
	}
	e.mu.Unlock()
	return e.base.List(dir)
}

// MkdirAll implements Env.
func (e *FaultInjectionEnv) MkdirAll(dir string) error { return e.base.MkdirAll(dir) }

// SyncDir implements Env; FaultSync rules whose pattern matches the directory
// path apply.
func (e *FaultInjectionEnv) SyncDir(dir string) error {
	e.mu.Lock()
	if _, ferr := e.checkLocked(FaultSync, cleanPath(dir), IOForeground, 0); ferr != nil {
		e.mu.Unlock()
		return ferr
	}
	e.mu.Unlock()
	return e.base.SyncDir(dir)
}

// Now implements Env.
func (e *FaultInjectionEnv) Now() time.Duration { return e.base.Now() }

// ChargeCPU implements Env.
func (e *FaultInjectionEnv) ChargeCPU(d time.Duration) { e.base.ChargeCPU(d) }

// ChargeStall implements Env.
func (e *FaultInjectionEnv) ChargeStall(d time.Duration) { e.base.ChargeStall(d) }

// --- crash simulation ---

// UnsyncedBytes reports how many bytes of name a crash would drop.
func (e *FaultInjectionEnv) UnsyncedBytes(name string) int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if st, ok := e.files[cleanPath(name)]; ok {
		return st.size - st.syncedLen
	}
	return 0
}

// DropUnsyncedData truncates every tracked file to its last-synced length —
// a clean power loss where nothing in flight survived. Files never written
// through this env are untouched. The filesystem stays in its current
// active/inactive state; callers usually deactivate first.
func (e *FaultInjectionEnv) DropUnsyncedData() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.truncateAllLocked(func(st *faultFileState) int64 { return st.syncedLen })
}

// Crash simulates power loss with torn tails: the filesystem is deactivated
// (all outstanding handles start failing) and each tracked file keeps a
// random prefix between its synced length and its full length — some in-
// flight writeback made it to the platter, some did not. Reopen against the
// base env afterwards.
func (e *FaultInjectionEnv) Crash() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.active = false
	return e.truncateAllLocked(func(st *faultFileState) int64 {
		if st.size <= st.syncedLen {
			return st.syncedLen
		}
		return st.syncedLen + e.rng.Int63n(st.size-st.syncedLen+1)
	})
}

// truncateAllLocked rewrites every tracked file to keep(st) bytes via the
// base env. Old writable handles keep pointing at replaced content and must
// not be reused; the crashing test abandons or error-closes its DB.
func (e *FaultInjectionEnv) truncateAllLocked(keep func(*faultFileState) int64) error {
	for name, st := range e.files {
		k := keep(st)
		if k >= st.size {
			continue
		}
		if err := e.rewriteLocked(name, st, k, nil); err != nil {
			return fmt.Errorf("lsm: fault truncate %s: %w", name, err)
		}
	}
	return nil
}

// rewriteLocked replaces name's content with its first n bytes, optionally
// letting mutate edit the kept prefix first (bit flips). Bookkeeping is
// updated so the result reads as fully synced.
func (e *FaultInjectionEnv) rewriteLocked(name string, st *faultFileState, n int64, mutate func([]byte)) error {
	buf := make([]byte, n)
	if n > 0 {
		rf, err := e.base.NewRandomAccessFile(name, st.class)
		if err != nil {
			return err
		}
		err = rf.ReadAt(buf, 0, HintSequential)
		rf.Close()
		if err != nil {
			return err
		}
	}
	if mutate != nil {
		mutate(buf)
	}
	wf, err := e.base.NewWritableFile(name, st.class)
	if err != nil {
		return err
	}
	if err := wf.Append(buf); err != nil {
		wf.Close()
		return err
	}
	if err := wf.Sync(); err != nil {
		wf.Close()
		return err
	}
	if err := wf.Close(); err != nil {
		return err
	}
	st.size = n
	st.syncedLen = n
	return nil
}

// CorruptSyncedBytes flips the low bit of n bytes starting at off in name —
// silent media corruption for exercising checksum paths. Works on any file
// reachable through the base env, tracked or not.
func (e *FaultInjectionEnv) CorruptSyncedBytes(name string, off, n int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	name = cleanPath(name)
	size, err := e.base.FileSize(name)
	if err != nil {
		return err
	}
	if off < 0 || off+n > size {
		return fmt.Errorf("lsm: corrupt range [%d,%d) outside file %s (size %d)", off, off+n, name, size)
	}
	st, ok := e.files[name]
	if !ok {
		st = &faultFileState{class: IOForeground, size: size, syncedLen: size}
		e.files[name] = st
	}
	st.size = size
	return e.rewriteLocked(name, st, size, func(b []byte) {
		for i := off; i < off+n; i++ {
			b[i] ^= 1
		}
	})
}
