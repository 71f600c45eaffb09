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

// walWriter frames records into a log file (the WAL, or the MANIFEST)
// through its fileWriter: each record's header and payload are written into
// the writer, and each append ends with one flush, so a write group's run
// (or a MANIFEST record) of at most tableWriteBufSize bytes is one Append.
// It books the WAL tickers and HistWALSyncMicros.
type walWriter struct {
	w     *fileWriter
	stats *Statistics
	// hists, when set, records every durability sync (periodic
	// bytes-per-sync syncs and explicit WriteOptions.Sync syncs) in
	// HistWALSyncMicros, timed on the writer's clock (the owner's
	// engineRuntime.stopwatch).
	hists *HistogramStats
	hdr   [walHeaderSize]byte // writeRecord's, here so it does not escape per record
}

// appendWALHeader appends payload's record header to dst.
func appendWALHeader(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// newWALWriter frames records into f through a writer with a buffer from
// bufs, booking its I/O into io, with opts' Statistics and, until an append
// restates them, its wal_bytes_per_sync and strict_bytes_per_sync.
func newWALWriter(f WritableFile, opts *Options, bufs *writeBufList, io *IOStatsContext) *walWriter {
	w := &walWriter{w: newFileWriter(f, bufs, io, opts.WALBytesPerSync, opts.StrictBytesPerSync), stats: opts.Stats}
	w.w.clock = func() time.Duration { return 0 }
	w.w.onRangeSync = w.synced
	return w
}

// addRecord appends one record under the writer's standing bytes-per-sync
// options.
func (w *walWriter) addRecord(payload []byte) error {
	if err := w.writeRecord(payload); err != nil {
		return err
	}
	return w.flush(walHeaderSize + int64(len(payload)))
}

// addRecords appends a write group's batches as one run of records: one
// Append for a run of up to tableWriteBufSize bytes, with the bytes-per-sync
// bookkeeping applied to the run. This is the group-commit amortization: N
// batches cost one WAL write. bytesPerSync and strict are the live
// wal_bytes_per_sync and strict_bytes_per_sync, read once per group.
func (w *walWriter) addRecords(payloads [][]byte, bytesPerSync int64, strict bool) error {
	w.w.bytesPerSync, w.w.strictSync = bytesPerSync, strict
	var n int64
	for _, p := range payloads {
		if err := w.writeRecord(p); err != nil {
			return err
		}
		n += walHeaderSize + int64(len(p))
	}
	return w.flush(n)
}

// writeRecord writes payload's header and payload into the writer.
func (w *walWriter) writeRecord(payload []byte) error {
	if err := w.w.write(appendWALHeader(w.hdr[:0], payload)); err != nil {
		return err
	}
	return w.w.write(payload)
}

// flush appends the n bytes of records written since the last flush.
func (w *walWriter) flush(n int64) error {
	if err := w.w.flush(); err != nil {
		return err
	}
	w.stats.Add(TickerWALBytes, n)
	return nil
}

// synced books one durability sync that took d.
func (w *walWriter) synced(d time.Duration) {
	w.stats.Add(TickerWALSyncs, 1)
	w.hists.Record(HistWALSyncMicros, d)
}

// sync forces durability of everything appended so far.
func (w *walWriter) sync() error {
	start := w.w.clock()
	err := w.w.sync()
	w.synced(w.w.clock() - start)
	return err
}

// size returns bytes appended so far.
func (w *walWriter) size() int64 { return w.w.size }

// close gives the writer's buffer back and closes the file.
func (w *walWriter) close() error { return w.w.close() }

// walReplayInfo summarizes one log file's replay.
type walReplayInfo struct {
	records        int   // records delivered to fn
	validBytes     int64 // length of the replayed prefix
	droppedBytes   int64 // bytes past the stop point (torn or corrupt)
	corruptRecords int   // records dropped with a failing checksum
	midFile        bool  // corruption had valid records after it (bit rot, not a torn tail)
}

// recordState is what logRecord found at an offset.
type recordState int

const (
	recordOK      recordState = iota
	recordShort               // fewer bytes than a header remain
	recordTorn                // the record's extent runs past the end of the file
	recordCorrupt             // the payload fails its checksum
)

// logRecord parses the record at off of a log read forward through r's
// window: the one place a log record's length and checksum are read. The
// payload (of an OK or corrupt record) aliases the window until the next
// call. A failed read is an error, never a state: it says nothing about the
// bytes on disk.
func logRecord(r *fileReader, off int64) ([]byte, recordState, error) {
	if off+walHeaderSize > r.size {
		return nil, recordShort, nil
	}
	hdr, err := r.sequential(off, walHeaderSize)
	if err != nil {
		return nil, 0, fmt.Errorf("lsm: read %s at offset %d: %w", r.name, off, err)
	}
	n, wantCRC := int64(binary.LittleEndian.Uint32(hdr)), binary.LittleEndian.Uint32(hdr[4:])
	if off+walHeaderSize+n > r.size {
		return nil, recordTorn, nil
	}
	rec, err := r.sequential(off, walHeaderSize+n)
	if err != nil {
		return nil, 0, fmt.Errorf("lsm: read %s at offset %d: %w", r.name, off, err)
	}
	if crc32.ChecksumIEEE(rec[walHeaderSize:]) != wantCRC {
		return rec[walHeaderSize:], recordCorrupt, nil
	}
	return rec[walHeaderSize:], recordOK, nil
}

// walReplayMode streams records from a log file under the given recovery
// mode; fn's payload is valid until fn returns. A record whose extent runs
// past end-of-file is a torn write; a record whose checksum fails is
// corruption, classified as mid-file when a valid record parses right after
// it. kAbsoluteConsistency errors on either; the tolerant modes stop
// replaying at the damage, and paranoid upgrades mid-file corruption (which a
// torn tail cannot explain) to an error. A failed read is an error in every
// mode. Dropped corrupt records are counted into stats as
// wal.corrupt.records. The log is read through a fileReader whose window
// comes from bufs.
func walReplayMode(env Env, name string, bufs *writeBufList, mode WALRecoveryMode, paranoid bool, stats *Statistics, fn func(payload []byte) error) (walReplayInfo, error) {
	var info walReplayInfo
	r, err := openFileReader(env, name, IOBackground, bufs, nil)
	if err != nil {
		return info, err
	}
	defer r.close()
	size := r.size
	var off int64
	var payload []byte
	var state recordState
	for {
		if payload, state, err = logRecord(r, off); err != nil {
			return info, err
		}
		if state != recordOK {
			break
		}
		if err := fn(payload); err != nil {
			return info, err
		}
		info.records++
		off += walHeaderSize + int64(len(payload))
		info.validBytes = off
	}
	info.droppedBytes = size - off
	var what string
	switch state {
	case recordShort:
		if off == size {
			return info, nil
		}
		what = fmt.Sprintf("%d trailing bytes", size-off)
	case recordTorn:
		what = "torn record"
	case recordCorrupt:
		info.corruptRecords++
		stats.Add(TickerWALCorruptRecords, 1)
		_, next, err := logRecord(r, off+walHeaderSize+int64(len(payload)))
		if err != nil {
			return info, err
		}
		info.midFile, what = next == recordOK, "checksum mismatch"
		if info.midFile && paranoid && mode != WALRecoverAbsoluteConsistency {
			return info, fmt.Errorf("lsm: %w: mid-file checksum mismatch at offset %d of %s (valid records follow; paranoid_checks)",
				ErrCorruption, off, name)
		}
	}
	if mode == WALRecoverAbsoluteConsistency {
		return info, fmt.Errorf("lsm: %w: %s at offset %d of %s (wal_recovery_mode=kAbsoluteConsistency)",
			ErrCorruption, what, off, name)
	}
	return info, nil
}

// WriteBatch collects updates applied atomically by DB.Write. Encoding:
// seq(8) count(4) then per record kind(1) [varint(cfid)] varint(klen) key
// [varint(vlen) val]. The cfid field is present only for the *CF kinds;
// default-family records use the legacy kinds, keeping old WALs readable
// byte-for-byte.
type WriteBatch struct {
	rep   []byte
	count uint32
	cfs   []cfCount // the column families this batch touches, first touch first
}

// cfCount is one family a batch touches and how many of its entries are for
// that family.
type cfCount struct {
	id      uint32
	entries uint32
}

// NewWriteBatch returns an empty batch.
func NewWriteBatch() *WriteBatch {
	b := &WriteBatch{rep: make([]byte, 12)}
	return b
}

// touchCF counts one more entry for a column family.
func (b *WriteBatch) touchCF(id uint32) {
	for i := range b.cfs {
		if b.cfs[i].id == id {
			b.cfs[i].entries++
			return
		}
	}
	b.cfs = append(b.cfs, cfCount{id: id, entries: 1})
}

// Put queues a key-value insertion into the default column family.
func (b *WriteBatch) Put(key, value []byte) { b.add(0, KindValue, key, value) }

// Delete queues a tombstone in the default column family.
func (b *WriteBatch) Delete(key []byte) { b.add(0, KindDelete, key, nil) }

// PutCF queues a key-value insertion into the given column family. A nil
// handle (or the default family's handle) is equivalent to Put.
func (b *WriteBatch) PutCF(h *ColumnFamilyHandle, key, value []byte) {
	b.add(cfHandleID(h), KindValue, key, value)
}

// DeleteCF queues a tombstone in the given column family. A nil handle (or
// the default family's handle) is equivalent to Delete.
func (b *WriteBatch) DeleteCF(h *ColumnFamilyHandle, key []byte) {
	b.add(cfHandleID(h), KindDelete, key, nil)
}

// add queues one entry of kind (KindValue or KindDelete) for family id: the
// default family's entries use the legacy kinds, any other family's the *CF
// kinds followed by its id.
func (b *WriteBatch) add(id uint32, kind ValueKind, key, value []byte) {
	b.touchCF(id)
	switch {
	case id == 0:
		b.rep = append(b.rep, byte(kind))
	case kind == KindValue:
		b.rep = binary.AppendUvarint(append(b.rep, byte(KindValueCF)), uint64(id))
	default:
		b.rep = binary.AppendUvarint(append(b.rep, byte(KindDeleteCF)), uint64(id))
	}
	b.rep = binary.AppendUvarint(b.rep, uint64(len(key)))
	b.rep = append(b.rep, key...)
	if kind == KindValue {
		b.rep = binary.AppendUvarint(b.rep, uint64(len(value)))
		b.rep = append(b.rep, value...)
	}
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
	b.cfs = b.cfs[:0]
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
