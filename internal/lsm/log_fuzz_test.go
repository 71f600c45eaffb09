package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// realLogFiles writes to a DB on SimEnv (two column families, one flush
// between two rounds of writes) and returns the bytes of its live WAL and of
// its MANIFEST.
func realLogFiles(tb testing.TB) (wal, manifest []byte) {
	tb.Helper()
	env := testSimEnv()
	opts := DefaultOptions()
	opts.Env = env
	db, err := Open("/db", opts)
	if err != nil {
		tb.Fatal(err)
	}
	defer db.Close()
	cf, err := db.CreateColumnFamily("users", nil)
	if err != nil {
		tb.Fatal(err)
	}
	put := func(round int) {
		for i := 0; i < 20; i++ {
			k, v := []byte(fmt.Sprintf("key%03d", i)), []byte(fmt.Sprintf("value%d-%d", round, i))
			if err := db.Put(nil, k, v); err != nil {
				tb.Fatal(err)
			}
			if err := db.PutCF(nil, cf, k, v); err != nil {
				tb.Fatal(err)
			}
		}
		if err := db.Delete(nil, []byte("key007")); err != nil {
			tb.Fatal(err)
		}
	}
	put(0)
	if err := db.Flush(); err != nil {
		tb.Fatal(err)
	}
	put(1)
	names, err := env.List("/db")
	if err != nil {
		tb.Fatal(err)
	}
	for _, name := range names {
		switch kind, _ := parseFileName(name); kind {
		case fileKindLog:
			wal = env.files[cleanPath("/db/"+name)].bytes()
		case fileKindManifest:
			manifest = env.files[cleanPath("/db/"+name)].bytes()
		}
	}
	if len(wal) == 0 || len(manifest) == 0 {
		tb.Fatalf("found a %d-byte WAL and a %d-byte MANIFEST, want both written", len(wal), len(manifest))
	}
	return wal, manifest
}

// FuzzLogReplay: arbitrary bytes, written as a log, replay in every
// WALRecoveryMode (paranoid or not) without panicking. A replay that returns
// no error accounts for every byte (validBytes + droppedBytes is the file
// size), an error is corruption (an in-memory file never fails a read), and
// every delivered payload re-frames to exactly the bytes at its offset.
func FuzzLogReplay(f *testing.F) {
	wal, manifest := realLogFiles(f)
	f.Add(wal)
	f.Add(manifest)
	f.Add(wal[:len(wal)-3])
	flipped := append([]byte(nil), wal...)
	flipped[walHeaderSize+2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // a 4 GiB length
	env := testSimEnv()
	const name = "/fuzz.log"
	f.Fuzz(func(t *testing.T, data []byte) {
		putSimFile(t, env, name, data)
		for _, mode := range []WALRecoveryMode{WALRecoverTolerateCorruptedTailRecords, WALRecoverAbsoluteConsistency, WALRecoverPointInTime} {
			for _, paranoid := range []bool{false, true} {
				var off int
				info, err := walReplayMode(env, name, nil, mode, paranoid, nil, func(p []byte) error {
					rec := append(appendWALHeader(nil, p), p...)
					if off+len(rec) > len(data) || !bytes.Equal(rec, data[off:off+len(rec)]) {
						t.Fatalf("%v paranoid=%v: the %d-byte payload at offset %d does not re-frame to the file's bytes", mode, paranoid, len(p), off)
					}
					off += len(rec)
					return nil
				})
				if info.validBytes != int64(off) {
					t.Fatalf("%v paranoid=%v: validBytes %d, delivered records end at %d", mode, paranoid, info.validBytes, off)
				}
				if err != nil {
					if !errors.Is(err, ErrCorruption) {
						t.Fatalf("%v paranoid=%v: %v, want corruption", mode, paranoid, err)
					}
					continue
				}
				if info.validBytes+info.droppedBytes != int64(len(data)) {
					t.Fatalf("%v paranoid=%v: valid %d + dropped %d bytes of %d", mode, paranoid, info.validBytes, info.droppedBytes, len(data))
				}
			}
		}
	})
}

// FuzzDecodeVersionEdit: no input panics the manifest edit decoder, and an
// edit it accepts survives encoding: decode(encode(decode(b))) equals
// decode(b).
func FuzzDecodeVersionEdit(f *testing.F) {
	_, manifest := realLogFiles(f)
	env := testSimEnv()
	putSimFile(f, env, "/MANIFEST-000001", manifest)
	if err := walReplay(env, "/MANIFEST-000001", nil, func(p []byte) error {
		f.Add(append([]byte(nil), p...))
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{tagNewFile, 1, 2})           // truncated new-file record
	f.Add([]byte{tagAddCF, 1, 0xff, 0xff, 1}) // name longer than the edit
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := decodeVersionEdit(b)
		if err != nil {
			return
		}
		again, err := decodeVersionEdit(e.encode())
		if err != nil {
			t.Fatalf("re-decoding an accepted edit: %v", err)
		}
		if !reflect.DeepEqual(e, again) {
			t.Fatalf("edit changed through encode:\n%+v\n%+v", e, again)
		}
	})
}

// putSimFile makes data the whole of file name on env.
func putSimFile(tb testing.TB, env *SimEnv, name string, data []byte) {
	tb.Helper()
	w, err := env.NewWritableFile(name, IOBackground)
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.Append(data); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
}
