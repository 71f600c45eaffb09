package lsm

import (
	"sync"
	"time"
)

// tableWriteBufSize is a fileWriter's buffer and a fileReader's window: a
// table file receives whole chunks of this size, and a WAL group or
// MANIFEST record of at most this size is one Append.
const tableWriteBufSize = 64 << 10

// spareList keeps idle values for the next taker, up to a bound the giver
// passes. Not a sync.Pool: a GC would empty that.
type spareList[T any] struct {
	mu    sync.Mutex
	spare []T
}

// take returns a kept value, if there is one.
func (l *spareList[T]) take() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.spare); n > 0 {
		x, ok = l.spare[n-1], true
		clear(l.spare[n-1:])
		l.spare = l.spare[:n-1]
	}
	return x, ok
}

// give keeps x unless max values already wait.
func (l *spareList[T]) give(x T, max int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spare) < max {
		l.spare = append(l.spare, x)
	}
}

// writeBufList is a DB's free list of file buffers: a writer takes one at
// its first write, a reader at its first sequential read, and each gives it
// back at close. A nil list keeps nothing: each writer or reader allocates.
type writeBufList struct{ spares spareList[[]byte] }

// writeBufSpares bounds the idle buffers. The list allocates only when
// empty, so it keeps what was out at once: a window per input run of a
// compaction (each L0 file, each deeper level), the job's writer, a flush's
// and the WAL's. 40 covers all 36 L0 files the default stop trigger allows.
const writeBufSpares = 40

func (l *writeBufList) get() []byte {
	if l != nil {
		if b, ok := l.spares.take(); ok {
			return b
		}
	}
	return make([]byte, 0, tableWriteBufSize)
}

// put gives b back. Under -tags poison it is filled with 0xDB first, so a
// file that kept a slice of it, or a block still aliasing a closed reader's
// window, shows garbage. A window grown for a long record is not kept.
func (l *writeBufList) put(b []byte) {
	if poisonBuffers {
		poison(b[:cap(b)])
	}
	if l != nil && cap(b) == tableWriteBufSize {
		l.spares.give(b[:0], writeBufSpares)
	}
}

// fileWriter is the one writer of a WAL, MANIFEST or table file, the
// counterpart of RocksDB's WritableFileWriter, and the only code that calls
// Append or SyncAsync on one. What it is given is copied into its buffer
// (taken from bufs at the first write and given back by close); the file
// receives an Append each time the buffer fills and one at flush. Every
// bytesPerSync appended bytes it starts writeback of what is written so far:
// SyncAsync, or a full Sync under strictSync. Appends and full syncs are
// booked into io on the wall clock.
type fileWriter struct {
	f    WritableFile
	bufs *writeBufList
	buf  []byte
	io   *IOStatsContext // nil: not attributed (the MANIFEST)
	size int64           // bytes written, the buffered ones included

	// bytesPerSync and strictSync are the owner's bytes_per_sync (or
	// wal_bytes_per_sync; 0: off) and strict_bytes_per_sync, read at each
	// append: the WAL restates them from the live options for every group.
	bytesPerSync int64
	strictSync   bool
	sinceSync    int64 // bytes appended since the last sync

	// onRangeSync, when set, is given the duration on clock of every
	// bytes-per-sync sync that succeeds (the WAL books it as a WAL sync).
	onRangeSync func(time.Duration)
	clock       func() time.Duration
}

func newFileWriter(f WritableFile, bufs *writeBufList, io *IOStatsContext, bytesPerSync int64, strict bool) *fileWriter {
	return &fileWriter{f: f, bufs: bufs, io: io, bytesPerSync: bytesPerSync, strictSync: strict}
}

// write copies p into the buffer, appending the buffer each time it fills.
// A p at least a whole buffer long that finds the buffer empty (a large
// filter or index block) is appended as it is, so every Append but the last
// carries at least tableWriteBufSize bytes.
func (w *fileWriter) write(p []byte) error {
	if w.buf == nil {
		w.buf = w.bufs.get()
	}
	w.size += int64(len(p))
	for len(p) > 0 {
		if len(w.buf) == 0 && len(p) >= cap(w.buf) {
			return w.append(p)
		}
		n := copy(w.buf[len(w.buf):cap(w.buf)], p)
		w.buf = w.buf[:len(w.buf)+n]
		p = p[n:]
		if len(w.buf) == cap(w.buf) {
			if err := w.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush appends what the buffer holds. The buffer is emptied even when the
// Append fails, so a failed WAL group never reaches the file with the next.
func (w *fileWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	err := w.append(w.buf)
	w.buf = w.buf[:0]
	return err
}

// append appends p to the file and, every bytesPerSync bytes, starts
// writeback. A table is still synced whole before it is installed.
func (w *fileWriter) append(p []byte) error {
	n, start := int64(len(p)), w.io.start()
	if err := w.f.Append(p); err != nil {
		return err
	}
	w.io.addWrite(n, start)
	if w.bytesPerSync <= 0 {
		return nil
	}
	w.sinceSync += n
	if w.sinceSync < w.bytesPerSync {
		return nil
	}
	w.sinceSync = 0
	var syncStart time.Duration
	if w.onRangeSync != nil {
		syncStart = w.clock()
	}
	// Non-strict queues writeback (sync_file_range); strict blocks the
	// writer until the range is durable (steadier tail, higher average).
	var err error
	if w.strictSync {
		err = w.syncFile()
	} else {
		err = w.f.SyncAsync()
	}
	if err == nil && w.onRangeSync != nil {
		w.onRangeSync(w.clock() - syncStart)
	}
	return err
}

// sync flushes the buffer and makes everything written durable.
func (w *fileWriter) sync() error {
	if err := w.flush(); err != nil {
		return err
	}
	w.sinceSync = 0
	return w.syncFile()
}

// syncFile syncs the file, booking the time into io.
func (w *fileWriter) syncFile() error {
	start := w.io.start()
	err := w.f.Sync()
	if !start.IsZero() {
		w.io.fsyncNanos.Add(elapsed(start))
	}
	return err
}

// close gives the buffer back to bufs and closes the file. What the buffer
// still holds is not written: an owner that wants it flushes first.
func (w *fileWriter) close() error {
	if w.buf != nil {
		w.bufs.put(w.buf)
		w.buf = nil
	}
	return w.f.Close()
}
