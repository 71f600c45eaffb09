package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"sync"
	"testing"
)

// TestCodecPoolConcurrentRoundTrip hammers the pooled block buffers and
// flate writers and readers from many goroutines across every Compression
// setting at once: each goroutine builds blocks, writes them through
// writeBlock (pooled staging buffer and compressor) and reads them back
// through readBlockRaw (pooled read buffer, reader and scratch), verifying
// byte equality. Run under -race this is the lifetime guard for every pooled
// codec object.
func TestCodecPoolConcurrentRoundTrip(t *testing.T) {
	comps := []Compression{NoCompression, SnappyCompression, LZ4Compression, ZstdCompression}
	const workers = 4
	const rounds = 25
	var wg sync.WaitGroup
	errc := make(chan error, len(comps)*workers)
	for _, comp := range comps {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(comp Compression, w int) {
				defer wg.Done()
				env := testSimEnv()
				name := fmt.Sprintf("/codec-%d-%d.sst", comp, w)
				f, err := env.NewWritableFile(name, IOBackground)
				if err != nil {
					errc <- err
					return
				}
				tb := &tableBuilder{w: f, opts: DefaultOptions()}
				var handles []blockHandle
				var raws [][]byte
				for r := 0; r < rounds; r++ {
					bb := newBlockBuilder(16)
					for i := 0; i < 64; i++ {
						bb.add([]byte(fmt.Sprintf("key-%02d-%02d-%06d", w, r, i)),
							[]byte(strings.Repeat("abcdefgh", 8)))
					}
					raw := append([]byte(nil), bb.finish()...)
					h, err := tb.writeBlock(raw, comp)
					if err != nil {
						errc <- err
						return
					}
					handles = append(handles, h)
					raws = append(raws, raw)
				}
				if err := f.Close(); err != nil {
					errc <- err
					return
				}
				rf, err := env.NewRandomAccessFile(name, IOBackground)
				if err != nil {
					errc <- err
					return
				}
				defer rf.Close()
				rd := &tableReader{f: rf, env: env}
				var scratch []byte
				for i, h := range handles {
					got, err := rd.readBlockRaw(h, HintSequential, scratch)
					if err != nil {
						errc <- fmt.Errorf("comp=%v block %d: %w", comp, i, err)
						return
					}
					if !bytes.Equal(got, raws[i]) {
						errc <- fmt.Errorf("comp=%v block %d: round trip mismatch", comp, i)
						return
					}
					scratch = got
				}
			}(comp, w)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// writeRawBlock lays one payload + trailer down with an arbitrary ctype and
// a CRC that is VALID for that ctype (the CRC covers payload+ctype, so a
// bogus ctype with a matching checksum is the only way to reach the
// unknown-compression branch).
func writeRawBlock(t *testing.T, env Env, name string, payload []byte, ctype byte) blockHandle {
	t.Helper()
	f, err := env.NewWritableFile(name, IOBackground)
	if err != nil {
		t.Fatal(err)
	}
	var trailer [blockTrailerSize]byte
	trailer[0] = ctype
	crc := crc32.ChecksumIEEE(payload)
	crc = crc32.Update(crc, crc32.IEEETable, trailer[:1])
	binary.LittleEndian.PutUint32(trailer[1:], crc)
	if err := f.Append(payload); err != nil {
		t.Fatal(err)
	}
	if err := f.Append(trailer[:]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return blockHandle{offset: 0, length: uint64(len(payload))}
}

// TestCorruptCtypePooledBufferSafety drives readBlockRaw down its error
// branches — unknown ctype, an undecodable DEFLATE stream, and malformed
// snappy blocks — with a pooled caller scratch in play, then proves the pools
// are unharmed by running real round trips afterward. A pooled buffer or
// codec leaking out of an error path would corrupt the follow-up reads.
func TestCorruptCtypePooledBufferSafety(t *testing.T) {
	env := testSimEnv()
	scratch := make([]byte, 0, 256)
	for i, tc := range []struct {
		name    string
		payload []byte
		ctype   byte
		want    string
	}{
		{"unknown ctype", []byte("not-a-real-compressed-block"), 7, "unknown block compression"},
		// The pooled flate reader fails mid-decode and must still return to
		// the pool safely.
		{"bad deflate", []byte{0xff, 0xff, 0x00, 0x13, 0x37}, blockFlate, "decompress block"},
		{"snappy truncated tag", []byte{0x0a, 0x00, 'a', 8<<2 | snappyTagCopy2}, blockSnappy, "truncated"},
		{"snappy offset 0", []byte{0x05, 0x00, 'a', snappyTagCopy1, 0x00}, blockSnappy, "offset"},
		{"snappy offset past output", []byte{0x05, 0x00, 'a', snappyTagCopy1, 0x02}, blockSnappy, "offset"},
		{"snappy prefix too long", []byte{0x05, 2 << 2, 'a', 'b', 'c'}, blockSnappy, "length"},
		{"snappy prefix too short", []byte{0x02, 2 << 2, 'a', 'b', 'c'}, blockSnappy, "length"},
		{"snappy prefix past expansion", []byte{0xff, 0xff, 0xff, 0x7f, 0x00, 'a'}, blockSnappy, "length"},
	} {
		name := fmt.Sprintf("/bad-%d.blk", i)
		h := writeRawBlock(t, env, name, tc.payload, tc.ctype)
		f, err := env.NewRandomAccessFile(name, IOBackground)
		if err != nil {
			t.Fatal(err)
		}
		rd := &tableReader{f: f, env: env}
		_, err = rd.readBlockRaw(h, HintRandom, scratch)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: want %q error, got %v", tc.name, tc.want, err)
		}
		if tc.ctype == blockSnappy && !errors.Is(err, ErrCorruption) {
			t.Fatalf("%s: %v does not wrap ErrCorruption", tc.name, err)
		}
		f.Close()
	}

	// The pools must still hand out working codecs and clean buffers.
	bb := newBlockBuilder(16)
	for i := 0; i < 64; i++ {
		bb.add([]byte(fmt.Sprintf("key%06d", i)), []byte(strings.Repeat("v", 32)))
	}
	raw := append([]byte(nil), bb.finish()...)
	for _, comp := range []Compression{ZstdCompression, SnappyCompression} {
		rd, gh := compressedBlockReader(t, raw, comp)
		got, err := rd.readBlockRaw(gh, HintRandom, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("%v round trip after error paths: mismatch", comp)
		}
	}
}

// TestReadBlockRawMixedTypes reads one table's blocks of every type, in
// orders that flip readBlockRaw's raw-or-compressed prediction both ways,
// from goroutines sharing the reader, into caller scratch and into fresh
// storage: every block must come back intact whichever way it was read.
func TestReadBlockRawMixedTypes(t *testing.T) {
	env := testSimEnv()
	w, err := env.NewWritableFile("/mixed.sst", IOBackground)
	if err != nil {
		t.Fatal(err)
	}
	tb := &tableBuilder{w: w, opts: DefaultOptions()}
	comps := []Compression{NoCompression, SnappyCompression, NoCompression, ZstdCompression, SnappyCompression, SnappyCompression, NoCompression}
	var handles []blockHandle
	var raws [][]byte
	for i, comp := range comps {
		bb := newBlockBuilder(16)
		for j := 0; j < 32; j++ {
			bb.add([]byte(fmt.Sprintf("key-%d-%04d", i, j)), []byte(strings.Repeat("payload", 1+i)))
		}
		raw := append([]byte(nil), bb.finish()...)
		h, err := tb.writeBlock(raw, comp)
		if err != nil {
			t.Fatal(err)
		}
		handles, raws = append(handles, h), append(raws, raw)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := env.NewRandomAccessFile("/mixed.sst", IOBackground)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd := &tableReader{f: f, env: env}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var scratch []byte
			for r := 0; r < 20; r++ {
				for k := range handles {
					i := (k*(g+1) + r) % len(handles)
					var dst []byte
					if (r+g)%2 == 0 {
						dst = scratch
					}
					got, err := rd.readBlockRaw(handles[i], HintRandom, dst)
					if err != nil {
						t.Errorf("block %d (%v): %v", i, comps[i], err)
						return
					}
					if !bytes.Equal(got, raws[i]) {
						t.Errorf("block %d (%v): mismatch", i, comps[i])
						return
					}
					if dst != nil {
						scratch = got
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
