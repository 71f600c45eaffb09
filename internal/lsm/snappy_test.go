package lsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// snappyRoundTrip encodes raw with no size limit, checks the encoding
// against the format bound and for determinism, and decodes it back.
func snappyRoundTrip(t *testing.T, raw []byte) []byte {
	t.Helper()
	enc, ok := snappyEncode(nil, raw, math.MaxInt)
	if !ok {
		t.Fatalf("encode of %d bytes refused without a limit", len(raw))
	}
	if len(enc) > snappyMaxEncodedLen(len(raw)) {
		t.Fatalf("%d bytes encoded to %d, bound is %d", len(raw), len(enc), snappyMaxEncodedLen(len(raw)))
	}
	if again, _ := snappyEncode(nil, raw, math.MaxInt); !bytes.Equal(enc, again) {
		t.Fatalf("encoding %d bytes twice gave different output", len(raw))
	}
	out, err := decodeBlock(nil, enc, blockSnappy)
	if err != nil {
		t.Fatalf("decode of %d encoded bytes: %v", len(enc), err)
	}
	if !bytes.Equal(out, raw) {
		t.Fatalf("round trip of %d bytes mismatched", len(raw))
	}
	return enc
}

// TestSnappyRoundTrip covers the encoder's edge shapes: inputs too short to
// match, runs that only an overlapping copy can express, matches longer than
// one element, incompressible data, and blocks past the 64 KiB window up to
// the largest block_size the registry accepts.
func TestSnappyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	big := make([]byte, 16<<20)
	for off := 0; off < len(big); off += 4096 {
		rng.Read(big[off : off+2048])
	}
	cases := map[string][]byte{
		"empty":        {},
		"one":          {'x'},
		"four":         []byte("abcd"),
		"zeros":        make([]byte, 1000),
		"period3":      []byte(strings.Repeat("abc", 500)),
		"random":       random(5000),
		"value-shaped": valueShapedBlock(),
		"window+1":     append(random(snappyWindow-10), make([]byte, 11)...),
		"16MiB":        big,
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) { snappyRoundTrip(t, raw) })
	}

	// A zero run is one literal and one copy at offset 1: far below the
	// literal-only size.
	if enc := snappyRoundTrip(t, make([]byte, 188)); len(enc) > 16 {
		t.Errorf("188 zeros encoded to %d bytes", len(enc))
	}
}

// TestSnappyEncodeGivesUpAtLimit checks that an encoding which cannot come in
// under its limit is abandoned once the pending literal reaches the limit,
// before that literal is ever copied out.
func TestSnappyEncodeGivesUpAtLimit(t *testing.T) {
	raw := make([]byte, 64<<10)
	rand.New(rand.NewSource(3)).Read(raw)
	limit := len(raw) - len(raw)/8
	enc, ok := snappyEncode(nil, raw, limit)
	if ok {
		t.Fatal("random bytes met the 12.5 % rule")
	}
	if len(enc) >= limit {
		t.Fatalf("encoder emitted %d bytes past a limit of %d before giving up", len(enc), limit)
	}
}

// FuzzBlockCodecRoundTrip: any input compresses and decompresses to itself
// through the block path, or is stored raw; the encoder's unlimited output
// always decodes to the input and is deterministic.
func FuzzBlockCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("abcdabcdabcdabcd"))
	f.Add(valueShapedBlock())
	past := make([]byte, snappyWindow+4096)
	rand.New(rand.NewSource(5)).Read(past[:snappyWindow/2])
	copy(past[snappyWindow:], past[:4096]) // a repeat just past the window
	f.Add(past)
	f.Fuzz(func(t *testing.T, raw []byte) {
		snappyRoundTrip(t, raw)
		payload, ctype, err := compressBlock(new(bytes.Buffer), raw, SnappyCompression)
		if err != nil {
			t.Fatal(err)
		}
		switch ctype {
		case blockSnappy:
			if len(payload) >= len(raw)-len(raw)/8 {
				t.Fatalf("kept a %d-byte payload for %d raw bytes", len(payload), len(raw))
			}
		case blockRaw:
			if !bytes.Equal(payload, raw) {
				t.Fatal("stored-raw payload differs from the input")
			}
		default:
			t.Fatalf("snappy wrote block type %d", ctype)
		}
		out, err := decodeBlock(nil, payload, ctype)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, raw) {
			t.Fatal("block round trip mismatched")
		}
	})
}

// FuzzDecodeBlock: an arbitrary type-2 payload decodes to an error wrapping
// ErrCorruption or to a block exactly as long as its prefix declares. A
// declared length beyond the format's expansion of the bytes received is
// refused by the prefix check, before anything is allocated from it.
func FuzzDecodeBlock(f *testing.F) {
	good, _ := snappyEncode(nil, valueShapedBlock(), math.MaxInt)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{0x05, 0x00, 'a', 0x01, 0x00})        // copy offset 0
	f.Add([]byte{0x05, 0x00, 'a', 0x01, 0x02})        // copy offset past the output
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0x00, 'a'})  // hostile length prefix
	f.Add([]byte{0x40, 0x00, 'a', 0xfe, 0x01, 0x00})  // overlapping copy2
	f.Add([]byte{0x09, 0xf0, 0x08, 0, 0, 0, 0, 0, 0}) // literal with a length byte
	f.Fuzz(func(t *testing.T, payload []byte) {
		out, err := decodeBlock(make([]byte, 0, 64), payload, blockSnappy)
		declared, prefix := binary.Uvarint(payload)
		if prefix > 0 && declared > uint64(len(payload)-prefix)*snappyMaxExpansion && !errors.Is(err, errSnappyLength) {
			t.Fatalf("declared length %d from %d bytes not refused at the prefix: %v", declared, len(payload), err)
		}
		if err != nil {
			if !errors.Is(err, ErrCorruption) {
				t.Fatalf("decode error %v does not wrap ErrCorruption", err)
			}
			return
		}
		if uint64(len(out)) != declared {
			t.Fatalf("decoded %d bytes, prefix declares %d", len(out), declared)
		}
	})
}

// TestFlateSnappyTableStillReads opens a table written with
// compression=snappy before snappy had a block type of its own, when its
// blocks were DEFLATE (type 1). The store must read back whole and pass
// CheckDB, then compact together with new type-2 tables into one clean
// table whose data blocks are all type 2.
func TestFlateSnappyTableStillReads(t *testing.T) {
	dir := t.TempDir()
	src, err := os.Open(filepath.Join("testdata", "snappy_flate_blocks.sst"))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := os.Create(tableFileName(dir, 6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(dst, src); err != nil {
		t.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	if types := dataBlockTypes(t, tableFileName(dir, 6)); types[blockFlate] == 0 || len(types) != 1 {
		t.Fatalf("fixture block types %v, want only DEFLATE", types)
	}

	opts := DefaultOptions()
	opts.Compression = SnappyCompression
	opts.BlockSize = 1024
	opts.DisableAutoCompactions = true
	// The fixture carries no manifest; repair installs it at L0.
	if rep, err := RepairDB(dir, opts); err != nil || rep.Salvaged != 1 {
		t.Fatalf("repair: %+v, %v", rep, err)
	}
	want := map[string]string{}
	for i := 0; i < 300; i++ {
		want[fmt.Sprintf("old-%05d", i)] = fmt.Sprintf("old-value-%05d-%s", i, strings.Repeat("abc", 10+i%20))
	}
	checkStore := func(stage string) {
		t.Helper()
		db, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("%s: open: %v", stage, err)
		}
		got := map[string]string{}
		it := db.NewIterator(nil)
		for it.SeekToFirst(); it.Valid(); it.Next() {
			got[string(it.Key())] = string(it.Value())
		}
		if err := it.Err(); err != nil {
			t.Fatalf("%s: iterate: %v", stage, err)
		}
		it.Close()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, want %d", stage, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s: %s = %q, want %q", stage, k, got[k], v)
			}
		}
		rep, err := CheckDB(dir, opts)
		if err != nil || !rep.OK() {
			t.Fatalf("%s: CheckDB: %v %v", stage, err, rep.Issues)
		}
	}
	checkStore("as written")

	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	wo := DefaultWriteOptions()
	for round := 0; round < 2; round++ {
		for i := round; i < 300; i += 3 {
			k := fmt.Sprintf("old-%05d", i)
			want[k] = fmt.Sprintf("rewritten-%d-%s", round, strings.Repeat("xyz", 20))
			if err := db.Put(wo, []byte(k), []byte(want[k])); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	checkStore("compacted")
	tables, err := filepath.Glob(filepath.Join(dir, "*.sst"))
	if err != nil || len(tables) != 1 {
		t.Fatalf("after full compaction: tables %v, %v", tables, err)
	}
	if types := dataBlockTypes(t, tables[0]); types[blockSnappy] == 0 || len(types) != 1 {
		t.Fatalf("compacted table block types %v, want only snappy", types)
	}
}

// dataBlockTypes counts the block types of a table's data blocks.
func dataBlockTypes(t *testing.T, name string) map[byte]int {
	t.Helper()
	env := NewOSEnv()
	tr, err := openTable(env, name, 0, nil, nil, IOBackground, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.close()
	types := map[byte]int{}
	it, err := newBlockIter(tr.indexRaw)
	if err != nil {
		t.Fatal(err)
	}
	for it.SeekToFirst(); it.Valid(); it.Next() {
		h, _, err := decodeBlockHandle(it.Value())
		if err != nil {
			t.Fatal(err)
		}
		var ctype [1]byte
		if err := tr.f.ReadAt(ctype[:], int64(h.offset+h.length), HintRandom); err != nil {
			t.Fatal(err)
		}
		types[ctype[0]]++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return types
}
