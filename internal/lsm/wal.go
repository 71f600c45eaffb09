package lsm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"time"
)

// WAL record framing: length(4, LE) crc32(4, LE over payload) payload.
// How a truncated or corrupt tail is handled at replay is governed by
// Options.WALRecoveryMode (see walReplayMode).
const walHeaderSize = 8

// walWriter appends framed records to a log file, implementing the
// wal_bytes_per_sync / strict_bytes_per_sync smoothing options.
type walWriter struct {
	f            WritableFile
	opts         *Options
	bytesWritten int64
	sinceSync    int64
	unsynced     int64 // bytes appended since the last durability sync
	stats        *Statistics
	// onSync, when set, receives one event per durability sync (periodic
	// bytes-per-sync syncs and explicit WriteOptions.Sync syncs), timed on
	// stopwatch (the owner's engineRuntime.stopwatch).
	onSync    func(WALSyncInfo)
	stopwatch func() time.Duration
}

func newWALWriter(f WritableFile, opts *Options) *walWriter {
	return &walWriter{f: f, opts: opts, stats: opts.Stats, stopwatch: func() time.Duration { return 0 }}
}

// addRecord appends one record, honoring the periodic-sync options.
func (w *walWriter) addRecord(payload []byte) error {
	var hdr [walHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if err := w.f.Append(hdr[:]); err != nil {
		return err
	}
	if err := w.f.Append(payload); err != nil {
		return err
	}
	return w.appended(int64(len(payload)) + walHeaderSize)
}

// addRecords appends several records as one contiguous run: a write group's
// batches become a single Append call (one framing buffer, one memcpy into
// the OS), with the bytes-per-sync bookkeeping applied once for the whole
// run. This is the group-commit amortization: N batches cost one WAL write.
func (w *walWriter) addRecords(payloads [][]byte) error {
	if len(payloads) == 1 {
		return w.addRecord(payloads[0])
	}
	var total int64
	for _, p := range payloads {
		total += int64(len(p)) + walHeaderSize
	}
	buf := make([]byte, 0, total)
	for _, p := range payloads {
		var hdr [walHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(p)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(p))
		buf = append(buf, hdr[:]...)
		buf = append(buf, p...)
	}
	if err := w.f.Append(buf); err != nil {
		return err
	}
	return w.appended(total)
}

// appended books n freshly appended bytes and issues the periodic sync once
// wal_bytes_per_sync of them have accumulated.
func (w *walWriter) appended(n int64) error {
	w.bytesWritten += n
	w.unsynced += n
	w.stats.Add(TickerWALBytes, n)
	if w.opts.WALBytesPerSync <= 0 {
		return nil
	}
	w.sinceSync += n
	if w.sinceSync < w.opts.WALBytesPerSync {
		return nil
	}
	// Non-strict mode queues writeback asynchronously (sync_file_range);
	// strict blocks the writer until the range is durable (steadier tail,
	// higher average).
	start := w.stopwatch()
	var err error
	if w.opts.StrictBytesPerSync {
		err = w.f.Sync()
	} else {
		err = syncMaybeAsync(w.f)
	}
	if err != nil {
		return err
	}
	w.stats.Add(TickerWALSyncs, 1)
	w.notifySync(w.stopwatch() - start)
	w.sinceSync = 0
	return nil
}

// sync forces durability of everything appended so far.
func (w *walWriter) sync() error {
	w.stats.Add(TickerWALSyncs, 1)
	w.sinceSync = 0
	start := w.stopwatch()
	err := w.f.Sync()
	w.notifySync(w.stopwatch() - start)
	return err
}

// notifySync reports one durability sync to the owner.
func (w *walWriter) notifySync(d time.Duration) {
	if w.onSync != nil {
		w.onSync(WALSyncInfo{Bytes: w.unsynced, Duration: d})
	}
	w.unsynced = 0
}

// size returns bytes appended so far.
func (w *walWriter) size() int64 { return w.bytesWritten }

// close closes the underlying file.
func (w *walWriter) close() error { return w.f.Close() }

// walReplayInfo summarizes one log file's replay.
type walReplayInfo struct {
	records        int   // records delivered to fn
	validBytes     int64 // length of the replayed prefix
	droppedBytes   int64 // bytes past the stop point (torn or corrupt)
	corruptRecords int   // records dropped with a failing checksum
	midFile        bool  // corruption had valid records after it (bit rot, not a torn tail)
}

// walReplay streams records from a log file, stopping cleanly at a corrupt
// or truncated tail (tolerate-mode semantics). fn receives each payload.
func walReplay(env Env, name string, fn func(payload []byte) error) error {
	_, err := walReplayMode(env, name, WALRecoverTolerateCorruptedTailRecords, false, nil, fn)
	return err
}

// walReplayMode streams records from a log file under the given recovery
// mode. A record whose extent runs past end-of-file is a torn write;
// a record whose checksum fails is corruption, classified as mid-file when
// valid records parse after it. kAbsoluteConsistency errors on either;
// the tolerant modes stop replaying at the damage, and paranoid upgrades
// mid-file corruption (which a torn tail cannot explain) to an error.
// Dropped corrupt records are counted into stats as wal.corrupt.records.
func walReplayMode(env Env, name string, mode WALRecoveryMode, paranoid bool, stats *Statistics, fn func(payload []byte) error) (walReplayInfo, error) {
	var info walReplayInfo
	f, err := env.NewRandomAccessFile(name, IOBackground)
	if err != nil {
		return info, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return info, err
	}
	torn := func(off int64, what string) (walReplayInfo, error) {
		info.droppedBytes = size - off
		if mode == WALRecoverAbsoluteConsistency {
			return info, fmt.Errorf("lsm: %w: %s at offset %d of %s (wal_recovery_mode=kAbsoluteConsistency)",
				ErrCorruption, what, off, name)
		}
		return info, nil
	}
	var off int64
	var hdr [walHeaderSize]byte
	for off+walHeaderSize <= size {
		if err := f.ReadAt(hdr[:], off, HintSequential); err != nil {
			return torn(off, "torn record header")
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:]))
		wantCRC := binary.LittleEndian.Uint32(hdr[4:])
		if off+walHeaderSize+n > size {
			return torn(off, "torn record")
		}
		payload := make([]byte, n)
		if n > 0 {
			if err := f.ReadAt(payload, off+walHeaderSize, HintSequential); err != nil {
				return torn(off, "unreadable record")
			}
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			info.corruptRecords++
			stats.Add(TickerWALCorruptRecords, 1)
			info.droppedBytes = size - off
			info.midFile = walValidRecordAt(f, off+walHeaderSize+n, size)
			switch {
			case mode == WALRecoverAbsoluteConsistency:
				return info, fmt.Errorf("lsm: %w: checksum mismatch at offset %d of %s (wal_recovery_mode=kAbsoluteConsistency)",
					ErrCorruption, off, name)
			case info.midFile && paranoid:
				return info, fmt.Errorf("lsm: %w: mid-file checksum mismatch at offset %d of %s (valid records follow; paranoid_checks)",
					ErrCorruption, off, name)
			}
			return info, nil
		}
		if err := fn(payload); err != nil {
			return info, err
		}
		info.records++
		off += walHeaderSize + n
		info.validBytes = off
	}
	if off < size {
		info.droppedBytes = size - off
		if mode == WALRecoverAbsoluteConsistency {
			return info, fmt.Errorf("lsm: %w: %d trailing bytes at offset %d of %s (wal_recovery_mode=kAbsoluteConsistency)",
				ErrCorruption, size-off, off, name)
		}
	}
	return info, nil
}

// walValidRecordAt reports whether a well-formed record (header in bounds,
// extent in bounds, checksum passing) starts at off — evidence that damage
// before off is mid-file corruption rather than a torn tail.
func walValidRecordAt(f RandomAccessFile, off, size int64) bool {
	var hdr [walHeaderSize]byte
	if off+walHeaderSize > size {
		return false
	}
	if err := f.ReadAt(hdr[:], off, HintSequential); err != nil {
		return false
	}
	n := int64(binary.LittleEndian.Uint32(hdr[0:]))
	if off+walHeaderSize+n > size {
		return false
	}
	payload := make([]byte, n)
	if n > 0 {
		if err := f.ReadAt(payload, off+walHeaderSize, HintSequential); err != nil {
			return false
		}
	}
	return crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(hdr[4:])
}

// WriteBatch collects updates applied atomically by DB.Write. Encoding:
// seq(8) count(4) then per record kind(1) [varint(cfid)] varint(klen) key
// [varint(vlen) val]. The cfid field is present only for the *CF kinds;
// default-family records use the legacy kinds, keeping old WALs readable
// byte-for-byte.
type WriteBatch struct {
	rep   []byte
	count uint32
	cfIDs []uint32 // unique column-family IDs touched by this batch
}

// NewWriteBatch returns an empty batch.
func NewWriteBatch() *WriteBatch {
	b := &WriteBatch{rep: make([]byte, 12)}
	return b
}

// touchCF records a column family as touched by this batch.
func (b *WriteBatch) touchCF(id uint32) {
	for _, have := range b.cfIDs {
		if have == id {
			return
		}
	}
	b.cfIDs = append(b.cfIDs, id)
}

// Put queues a key-value insertion into the default column family.
func (b *WriteBatch) Put(key, value []byte) {
	b.touchCF(0)
	b.rep = append(b.rep, byte(KindValue))
	b.rep = binary.AppendUvarint(b.rep, uint64(len(key)))
	b.rep = append(b.rep, key...)
	b.rep = binary.AppendUvarint(b.rep, uint64(len(value)))
	b.rep = append(b.rep, value...)
	b.count++
}

// Delete queues a tombstone in the default column family.
func (b *WriteBatch) Delete(key []byte) {
	b.touchCF(0)
	b.rep = append(b.rep, byte(KindDelete))
	b.rep = binary.AppendUvarint(b.rep, uint64(len(key)))
	b.rep = append(b.rep, key...)
	b.count++
}

// PutCF queues a key-value insertion into the given column family. A nil
// handle (or the default family's handle) is equivalent to Put.
func (b *WriteBatch) PutCF(h *ColumnFamilyHandle, key, value []byte) {
	id := cfHandleID(h)
	if id == 0 {
		b.Put(key, value)
		return
	}
	b.touchCF(id)
	b.rep = append(b.rep, byte(KindValueCF))
	b.rep = binary.AppendUvarint(b.rep, uint64(id))
	b.rep = binary.AppendUvarint(b.rep, uint64(len(key)))
	b.rep = append(b.rep, key...)
	b.rep = binary.AppendUvarint(b.rep, uint64(len(value)))
	b.rep = append(b.rep, value...)
	b.count++
}

// DeleteCF queues a tombstone in the given column family. A nil handle (or
// the default family's handle) is equivalent to Delete.
func (b *WriteBatch) DeleteCF(h *ColumnFamilyHandle, key []byte) {
	id := cfHandleID(h)
	if id == 0 {
		b.Delete(key)
		return
	}
	b.touchCF(id)
	b.rep = append(b.rep, byte(KindDeleteCF))
	b.rep = binary.AppendUvarint(b.rep, uint64(id))
	b.rep = binary.AppendUvarint(b.rep, uint64(len(key)))
	b.rep = append(b.rep, key...)
	b.count++
}

// Count returns the number of queued operations.
func (b *WriteBatch) Count() int { return int(b.count) }

// Clear empties the batch for reuse.
func (b *WriteBatch) Clear() {
	b.rep = b.rep[:12]
	for i := range b.rep {
		b.rep[i] = 0
	}
	b.count = 0
	b.cfIDs = b.cfIDs[:0]
}

// ApproximateSize returns the encoded size in bytes.
func (b *WriteBatch) ApproximateSize() int64 { return int64(len(b.rep)) }

// setSequence stamps the batch's starting sequence number.
func (b *WriteBatch) setSequence(seq uint64) {
	binary.LittleEndian.PutUint64(b.rep[0:], seq)
	binary.LittleEndian.PutUint32(b.rep[8:], b.count)
}

// sequence reads the starting sequence number.
func (b *WriteBatch) sequence() uint64 { return binary.LittleEndian.Uint64(b.rep[0:]) }

// iterate decodes the batch, calling fn with each record's assigned
// sequence number and owning column family.
func (b *WriteBatch) iterate(fn func(seq uint64, cfID uint32, kind ValueKind, key, value []byte) error) error {
	return decodeBatch(b.rep, fn)
}

// decodeBatch walks an encoded batch representation. The *CF kinds are
// resolved to their base kinds, with the decoded column-family ID passed to
// fn (0 for legacy default-family records).
func decodeBatch(rep []byte, fn func(seq uint64, cfID uint32, kind ValueKind, key, value []byte) error) error {
	if len(rep) < 12 {
		return fmt.Errorf("lsm: batch header too short (%d bytes)", len(rep))
	}
	seq := binary.LittleEndian.Uint64(rep[0:])
	count := binary.LittleEndian.Uint32(rep[8:])
	body := rep[12:]
	for i := uint32(0); i < count; i++ {
		if len(body) < 1 {
			return io.ErrUnexpectedEOF
		}
		kind := ValueKind(body[0])
		body = body[1:]
		var cfID uint32
		switch kind {
		case KindValueCF, KindDeleteCF:
			id, n := binary.Uvarint(body)
			if n <= 0 {
				return io.ErrUnexpectedEOF
			}
			cfID = uint32(id)
			body = body[n:]
			if kind == KindValueCF {
				kind = KindValue
			} else {
				kind = KindDelete
			}
		}
		klen, n := binary.Uvarint(body)
		if n <= 0 || uint64(len(body)-n) < klen {
			return io.ErrUnexpectedEOF
		}
		key := body[n : n+int(klen)]
		body = body[n+int(klen):]
		var value []byte
		if kind == KindValue {
			vlen, n2 := binary.Uvarint(body)
			if n2 <= 0 || uint64(len(body)-n2) < vlen {
				return io.ErrUnexpectedEOF
			}
			value = body[n2 : n2+int(vlen)]
			body = body[n2+int(vlen):]
		}
		if err := fn(seq+uint64(i), cfID, kind, key, value); err != nil {
			return err
		}
	}
	if len(body) != 0 {
		return fmt.Errorf("lsm: %d trailing bytes in batch", len(body))
	}
	return nil
}
