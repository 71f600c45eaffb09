package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

// walReplay streams records from a log file, stopping cleanly at a corrupt
// or truncated tail (tolerate-mode semantics). fn receives each payload.
func walReplay(env Env, name string, bufs *writeBufList, fn func(payload []byte) error) error {
	_, err := walReplayMode(env, name, bufs, WALRecoverTolerateCorruptedTailRecords, false, nil, fn)
	return err
}

func TestWALRoundTrip(t *testing.T) {
	env := testSimEnv()
	f, err := env.NewWritableFile("/wal.log", IOForeground)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	w := newWALWriter(f, opts, nil, nil)
	records := [][]byte{[]byte("one"), []byte("two"), {}, []byte("four-longer-record")}
	for _, r := range records {
		if err := w.addRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.sync(); err != nil {
		t.Fatal(err)
	}
	w.close()

	var got [][]byte
	err = walReplay(env, "/wal.log", nil, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("replayed %d records, want %d", len(got), len(records))
	}
	for i := range records {
		if string(got[i]) != string(records[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], records[i])
		}
	}
}

func TestWALTornTail(t *testing.T) {
	env := testSimEnv()
	f, _ := env.NewWritableFile("/wal.log", IOForeground)
	w := newWALWriter(f, DefaultOptions(), nil, nil)
	w.addRecord([]byte("good"))
	w.close()
	// Append garbage simulating a torn write.
	f2, _ := env.NewRandomAccessFile("/wal.log", IOForeground)
	size, _ := f2.Size()
	f2.Close()
	wf, _ := env.NewWritableFile("/wal2.log", IOForeground)
	buf := make([]byte, size)
	rf, _ := env.NewRandomAccessFile("/wal.log", IOForeground)
	rf.ReadAt(buf, 0, HintSequential)
	rf.Close()
	wf.Append(buf)
	wf.Append([]byte{9, 0, 0, 0, 1, 2, 3, 4, 0xff}) // header claims 9 bytes, only 1 present
	wf.Close()

	var got int
	if err := walReplay(env, "/wal2.log", nil, func(p []byte) error { got++; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("replayed %d records past torn tail, want 1", got)
	}
}

func TestWALCorruptCRC(t *testing.T) {
	env := testSimEnv()
	f, _ := env.NewWritableFile("/wal.log", IOForeground)
	w := newWALWriter(f, DefaultOptions(), nil, nil)
	w.addRecord([]byte("record-a"))
	w.addRecord([]byte("record-b"))
	w.close()
	// Flip a byte in the second record's payload.
	mf := env.files[cleanPath("/wal.log")]
	mf.chunks[len(mf.chunks)-1][(mf.size-1)%simFileChunk] ^= 0xff
	var got int
	if err := walReplay(env, "/wal.log", nil, func(p []byte) error { got++; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("replayed %d records, want 1 (corrupt tail must stop replay)", got)
	}
}

func TestWALPeriodicSync(t *testing.T) {
	env := testSimEnv()
	f, _ := env.NewWritableFile("/wal.log", IOForeground)
	opts := DefaultOptions()
	opts.WALBytesPerSync = 64
	stats := NewStatistics()
	opts.Stats = stats
	w := newWALWriter(f, opts, nil, nil)
	for i := 0; i < 10; i++ {
		w.addRecord(make([]byte, 32))
	}
	if stats.Get(TickerWALSyncs) == 0 {
		t.Fatal("wal_bytes_per_sync produced no periodic syncs")
	}
}

func TestBatchEncodeDecode(t *testing.T) {
	b := NewWriteBatch()
	b.Put([]byte("key1"), []byte("value1"))
	b.Delete([]byte("key2"))
	b.Put([]byte(""), []byte("")) // empty key/value legal at batch layer
	b.setSequence(100)
	if b.sequence() != 100 {
		t.Fatalf("sequence = %d", b.sequence())
	}
	type rec struct {
		seq  uint64
		kind ValueKind
		k, v string
	}
	var got []rec
	err := b.iterate(func(seq uint64, _ uint32, kind ValueKind, key, value []byte) error {
		got = append(got, rec{seq, kind, string(key), string(value)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []rec{
		{100, KindValue, "key1", "value1"},
		{101, KindDelete, "key2", ""},
		{102, KindValue, "", ""},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestBatchClear(t *testing.T) {
	b := NewWriteBatch()
	b.Put([]byte("k"), []byte("v"))
	b.Clear()
	if b.Count() != 0 || b.ApproximateSize() != 12 {
		t.Fatalf("after Clear: count=%d size=%d", b.Count(), b.ApproximateSize())
	}
	b.Put([]byte("k2"), []byte("v2"))
	if b.Count() != 1 {
		t.Fatalf("reuse after Clear: count=%d", b.Count())
	}
}

func TestDecodeBatchErrors(t *testing.T) {
	if err := decodeBatch([]byte{1, 2}, nil); err == nil {
		t.Fatal("short batch accepted")
	}
	// Valid header claiming 1 record but empty body.
	bad := make([]byte, 12)
	bad[8] = 1
	if err := decodeBatch(bad, func(uint64, uint32, ValueKind, []byte, []byte) error { return nil }); !errors.Is(err, errUnexpectedEOFAlias) && err == nil {
		t.Fatal("truncated batch accepted")
	}
}

// errUnexpectedEOFAlias keeps the test readable without importing io twice.
var errUnexpectedEOFAlias = errUnexpectedEOF()

func errUnexpectedEOF() error {
	b := make([]byte, 12)
	b[8] = 1
	return decodeBatch(b, func(uint64, uint32, ValueKind, []byte, []byte) error { return nil })
}

// TestQuickBatchRoundTrip: arbitrary operation sequences encode and decode
// losslessly.
func TestQuickBatchRoundTrip(t *testing.T) {
	fn := func(ops [][2][]byte, seq uint64) bool {
		seq &= maxSequence >> 1
		b := NewWriteBatch()
		for _, op := range ops {
			if op[1] == nil {
				b.Delete(op[0])
			} else {
				b.Put(op[0], op[1])
			}
		}
		b.setSequence(seq)
		i := 0
		err := b.iterate(func(s uint64, _ uint32, kind ValueKind, key, value []byte) error {
			op := ops[i]
			if s != seq+uint64(i) {
				return errors.New("bad seq")
			}
			if op[1] == nil {
				if kind != KindDelete || string(key) != string(op[0]) {
					return errors.New("bad delete")
				}
			} else {
				if kind != KindValue || string(key) != string(op[0]) || string(value) != string(op[1]) {
					return errors.New("bad put")
				}
			}
			i++
			return nil
		})
		return err == nil && i == len(ops)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestWALReplayLongRecords: records longer than a read chunk, and records
// that straddle chunk boundaries, replay byte for byte.
func TestWALReplayLongRecords(t *testing.T) {
	env := testSimEnv()
	f, err := env.NewWritableFile("/wal.log", IOForeground)
	if err != nil {
		t.Fatal(err)
	}
	w := newWALWriter(f, DefaultOptions(), nil, nil)
	var records [][]byte
	for i, n := range []int{10, tableWriteBufSize - 20, 3 * tableWriteBufSize, 5, tableWriteBufSize, 0, tableWriteBufSize - walHeaderSize, 1} {
		r := bytes.Repeat([]byte{byte('a' + i)}, n)
		records = append(records, r)
		if err := w.addRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	w.close()
	got := 0
	err = walReplay(env, "/wal.log", nil, func(p []byte) error {
		if got >= len(records) || !bytes.Equal(p, records[got]) {
			return fmt.Errorf("record %d: %d bytes differ from the %d written", got, len(p), len(records[got]))
		}
		got++
		return nil
	})
	if err != nil || got != len(records) {
		t.Fatalf("replayed %d of %d records: %v", got, len(records), err)
	}
}
