package lsm

// fileReader is the one reader of a WAL, MANIFEST, CURRENT or table file
// (RocksDB's RandomAccessFileReader and its prefetch buffer), the only code
// that calls ReadAt on one, booking every ReadAt into io (nil: not booked).
// A point read is one ReadAt into the caller's buffer; a sequential read
// comes out of a window, a buffer from bufs refilled with one ReadAt when a
// read runs past it. A sequential reader belongs to one goroutine: the
// table cache's shared readers make only point reads.
type fileReader struct {
	f    RandomAccessFile
	name string
	size int64
	io   *IOStatsContext
	bufs *writeBufList

	// win holds the file's bytes [off, off+len(win)). A refill stops at
	// limit: the file's end, or a table's last data block, so a scan books
	// the bytes it reads and not the table's filter and index.
	win   []byte
	off   int64
	limit int64
}

// openFileReader opens name for reading with the given I/O class.
func openFileReader(env Env, name string, class IOClass, bufs *writeBufList, io *IOStatsContext) (*fileReader, error) {
	f, err := env.NewRandomAccessFile(name, class)
	if err != nil {
		return nil, err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &fileReader{f: f, name: name, size: size, io: io, bufs: bufs, limit: size}, nil
}

// readAt fills p from off with one ReadAt, booking it into io.
func (r *fileReader) readAt(p []byte, off int64, hint AccessHint) error {
	start := r.io.start()
	err := r.f.ReadAt(p, off, hint)
	if err == nil {
		r.io.addRead(int64(len(p)), start)
	}
	return err
}

// sequential returns the n bytes at off, aliasing the window until the next
// sequential read or close. A miss slides what the window holds of them to
// its front and fills the rest with one ReadAt, up to limit (or off+n, if
// further). A read longer than the window gets a larger one of its own.
func (r *fileReader) sequential(off, n int64) ([]byte, error) {
	if off >= r.off && off+n <= r.off+int64(len(r.win)) {
		return r.win[off-r.off : off-r.off+n], nil
	}
	if r.win == nil {
		r.win = r.bufs.get()
	}
	buf := r.win[:cap(r.win)]
	if int64(len(buf)) < n {
		buf = make([]byte, n)
	}
	var keep int64
	if off >= r.off && off < r.off+int64(len(r.win)) {
		keep = int64(copy(buf, r.win[off-r.off:]))
	}
	if cap(buf) != cap(r.win) {
		r.bufs.put(r.win)
	}
	end := min(off+int64(len(buf)), max(r.limit, off+n))
	r.off, r.win = off, buf[:end-off]
	if err := r.readAt(r.win[keep:], off+keep, HintSequential); err != nil {
		r.win = r.win[:0]
		return nil, err
	}
	return r.win[:n], nil
}

// close gives the window back to bufs and closes the file.
func (r *fileReader) close() error {
	if r.win != nil {
		r.bufs.put(r.win)
		r.win = nil
	}
	return r.f.Close()
}
