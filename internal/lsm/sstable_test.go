package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/device"
)

// openTableFile opens table file name on env as a reader with the given
// I/O class and block cache, no buffer list and no attribution.
func openTableFile(env Env, name string, num uint64, class IOClass, cache *blockCache) (*tableReader, error) {
	f, err := openFileReader(env, name, class, nil, nil)
	if err != nil {
		return nil, err
	}
	return openTable(env, f, num, cache, nil, nil)
}

func testSimEnv() *SimEnv {
	return NewSimEnv(device.NVMe(), device.Profile4C8G(), 1)
}

func TestBlockBuilderIter(t *testing.T) {
	b := newBlockBuilder(4)
	var keys [][]byte
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key%04d", i))
		keys = append(keys, k)
		b.add(k, []byte(fmt.Sprintf("val%d", i)))
	}
	data := b.finish()
	it, err := newBlockIter(data)
	if err != nil {
		t.Fatal(err)
	}
	it.SeekToFirst()
	for i := 0; i < 100; i++ {
		if !it.Valid() {
			t.Fatalf("iterator died at %d", i)
		}
		if !bytes.Equal(it.Key(), keys[i]) {
			t.Fatalf("key %d = %q, want %q", i, it.Key(), keys[i])
		}
		it.Next()
	}
	if it.Valid() {
		t.Fatal("iterator should be exhausted")
	}

	cmp := bytes.Compare
	it2, _ := newBlockIter(data)
	it2.Seek([]byte("key0050"), cmp)
	if !it2.Valid() || string(it2.Key()) != "key0050" {
		t.Fatalf("Seek(key0050) = %q", it2.Key())
	}
	it2.Seek([]byte("key00505"), cmp)
	if !it2.Valid() || string(it2.Key()) != "key0051" {
		t.Fatalf("Seek between keys = %q", it2.Key())
	}
	it2.Seek([]byte("zzz"), cmp)
	if it2.Valid() {
		t.Fatal("Seek past end should invalidate")
	}
}

func TestBlockCorruption(t *testing.T) {
	if _, err := newBlockIter([]byte{1, 2}); err == nil {
		t.Fatal("short block accepted")
	}
	if _, err := newBlockIter([]byte{0, 0, 0, 0}); err == nil {
		t.Fatal("zero restarts accepted")
	}
}

// TestBlockIterLengthEncodings drives decodeAt through both the one-byte fast
// path and binary.Uvarint for each of an entry's three lengths, and checks
// that a block cut anywhere inside an entry is still reported as corrupt.
func TestBlockIterLengthEncodings(t *testing.T) {
	type kv struct{ k, v []byte }
	var entries []kv
	for i, sizes := range [][2]int{{1, 0}, {127, 127}, {128, 128}, {300, 20000}, {300, 5}, {301, 127}, {131, 128}} {
		k := bytes.Repeat([]byte{byte('a' + i)}, sizes[0])
		if i >= 3 {
			// Share a long prefix with the previous key: shared >= 0x80.
			k = append(bytes.Repeat([]byte{'d'}, 200), k...)
		}
		entries = append(entries, kv{k, bytes.Repeat([]byte{byte(i)}, sizes[1])})
	}
	b := newBlockBuilder(16) // one restart: later entries carry shared lengths
	for _, e := range entries {
		b.add(e.k, e.v)
	}
	data := b.finish()
	it, err := newBlockIter(data)
	if err != nil {
		t.Fatal(err)
	}
	ends := []uint32{}
	it.SeekToFirst()
	for i, e := range entries {
		if !it.Valid() || !bytes.Equal(it.Key(), e.k) || !bytes.Equal(it.Value(), e.v) {
			t.Fatalf("entry %d: valid %v, key %d bytes, value %d bytes; want %d and %d",
				i, it.Valid(), len(it.Key()), len(it.Value()), len(e.k), len(e.v))
		}
		ends = append(ends, it.off)
		it.Next()
	}
	if it.Valid() || it.Err() != nil {
		t.Fatalf("after the last entry: valid %v, err %v", it.Valid(), it.Err())
	}

	// Keep the entry region up to cut and re-attach a one-restart trailer.
	trailer := []byte{0, 0, 0, 0, 1, 0, 0, 0}
	boundary := map[uint32]bool{0: true}
	for _, e := range ends {
		boundary[e] = true
	}
	for cut := uint32(0); cut <= ends[len(ends)-1]; cut++ {
		if cut > 700 && cut < ends[3]-4 && !boundary[cut] {
			continue // the middle of the 20000-byte value adds nothing
		}
		it, err := newBlockIter(append(append([]byte(nil), data[:cut]...), trailer...))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		n := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			n++
		}
		if clean := it.Err() == nil; clean != boundary[cut] {
			t.Fatalf("cut %d (entry boundary %v): %d entries, err %v", cut, boundary[cut], n, it.Err())
		}
	}
	// A length that never terminates, and one that overflows 64 bits.
	for _, bad := range [][]byte{{0x80}, {0, 0x80}, {0, 1, 0x80}, bytes.Repeat([]byte{0xff}, 11)} {
		it, err := newBlockIter(append(append([]byte(nil), bad...), trailer...))
		if err != nil {
			t.Fatal(err)
		}
		if it.SeekToFirst(); it.Valid() || it.Err() == nil {
			t.Errorf("entry % x: valid %v, err %v; want corrupt", bad, it.Valid(), it.Err())
		}
	}
}

// buildTestTable writes numKeys sequential entries into an SSTable file and
// opens a reader for it.
func buildTestTable(t *testing.T, env Env, opts *Options, numKeys int) *tableReader {
	t.Helper()
	w, err := env.NewWritableFile("/t.sst", IOBackground)
	if err != nil {
		t.Fatal(err)
	}
	b := newTableBuilder(newFileWriter(w, nil, nil, 0, false), opts)
	for i := 0; i < numKeys; i++ {
		ik := makeInternalKey(nil, []byte(fmt.Sprintf("key%06d", i)), uint64(i+1), KindValue)
		if err := b.add(ik, []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	props, err := b.finish()
	if err != nil {
		t.Fatal(err)
	}
	if props.NumEntries != int64(numKeys) {
		t.Fatalf("props.NumEntries = %d", props.NumEntries)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := openTableFile(env, "/t.sst", 1, IOForeground, newBlockCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTableRoundTrip(t *testing.T) {
	env := testSimEnv()
	opts := DefaultOptions()
	opts.BloomBitsPerKey = 10
	opts.BlockSize = 512
	r := buildTestTable(t, env, opts, 500)
	defer r.close()

	for i := 0; i < 500; i += 7 {
		lookup := makeInternalKey(nil, []byte(fmt.Sprintf("key%06d", i)), maxSequence, KindValue)
		val, found, deleted, err := r.get(nil, lookup)
		if err != nil {
			t.Fatal(err)
		}
		if !found || deleted {
			t.Fatalf("key%06d: found=%v deleted=%v", i, found, deleted)
		}
		if want := fmt.Sprintf("value-%d", i); string(val) != want {
			t.Fatalf("value = %q, want %q", val, want)
		}
	}
	// Misses.
	for _, k := range []string{"aaaa", "key9999999", "zzz"} {
		lookup := makeInternalKey(nil, []byte(k), maxSequence, KindValue)
		_, found, _, err := r.get(nil, lookup)
		if err != nil {
			t.Fatal(err)
		}
		if found {
			t.Fatalf("%q should miss", k)
		}
	}
}

func TestTableIterator(t *testing.T) {
	env := testSimEnv()
	opts := DefaultOptions()
	opts.BlockSize = 256
	r := buildTestTable(t, env, opts, 300)
	defer r.close()

	var it tableIter
	it.init(r, HintSequential)
	it.SeekToFirst()
	count := 0
	var prev internalKey
	for it.Valid() {
		if prev != nil && compareInternal(prev, it.Key()) >= 0 {
			t.Fatal("out of order")
		}
		prev = append(internalKey(nil), it.Key()...)
		count++
		it.Next()
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if count != 300 {
		t.Fatalf("iterated %d entries, want 300", count)
	}

	it.init(r, HintRandom)
	it.Seek(makeInternalKey(nil, []byte("key000150"), maxSequence, KindValue))
	if !it.Valid() || string(it.Key().userKey()) != "key000150" {
		t.Fatalf("Seek = %v", it.Key())
	}
}

func TestTableCompression(t *testing.T) {
	for _, comp := range []Compression{NoCompression, SnappyCompression, ZstdCompression} {
		t.Run(comp.String(), func(t *testing.T) {
			env := testSimEnv()
			opts := DefaultOptions()
			opts.Compression = comp
			r := buildTestTable(t, env, opts, 200)
			defer r.close()
			lookup := makeInternalKey(nil, []byte("key000042"), maxSequence, KindValue)
			val, found, _, err := r.get(nil, lookup)
			if err != nil || !found || string(val) != "value-42" {
				t.Fatalf("get = %q %v %v", val, found, err)
			}
		})
	}
}

func TestTableCorruptMagic(t *testing.T) {
	env := testSimEnv()
	w, _ := env.NewWritableFile("/bad.sst", IOBackground)
	w.Append(bytes.Repeat([]byte{7}, 100))
	w.Close()
	if _, err := openTableFile(env, "/bad.sst", 1, IOForeground, nil); err == nil {
		t.Fatal("corrupt table accepted")
	}
}

func TestParseCompression(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Compression
		err  bool
	}{
		{"none", NoCompression, false},
		{"kSnappyCompression", SnappyCompression, false},
		{"snappy", SnappyCompression, false},
		{"zstd", ZstdCompression, false},
		{"lz4", LZ4Compression, false},
		{"brotli", 0, true},
	} {
		got, err := ParseCompression(tc.in)
		if (err != nil) != tc.err || (!tc.err && got != tc.want) {
			t.Errorf("ParseCompression(%q) = %v, %v", tc.in, got, err)
		}
	}
}

// TestQuickTableRoundTrip builds tables from random sorted key sets and
// verifies every key is retrievable.
func TestQuickTableRoundTrip(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		env := NewSimEnv(device.NVMe(), device.Profile4C8G(), seed)
		opts := DefaultOptions()
		opts.BlockSize = 128 + r.Intn(4096)
		opts.BloomBitsPerKey = r.Intn(16)
		w, err := env.NewWritableFile("/q.sst", IOBackground)
		if err != nil {
			return false
		}
		b := newTableBuilder(newFileWriter(w, nil, nil, 0, false), opts)
		n := 1 + r.Intn(300)
		type kv struct{ k, v string }
		var kvs []kv
		for i := 0; i < n; i++ {
			kvs = append(kvs, kv{fmt.Sprintf("k%08d", i*3+r.Intn(2)), fmt.Sprintf("v%d", r.Int63())})
		}
		for i, e := range kvs {
			ik := makeInternalKey(nil, []byte(e.k), uint64(n-i), KindValue)
			if err := b.add(ik, []byte(e.v)); err != nil {
				return false
			}
		}
		if _, err := b.finish(); err != nil {
			return false
		}
		w.Close()
		tr, err := openTableFile(env, "/q.sst", 2, IOForeground, nil)
		if err != nil {
			return false
		}
		defer tr.close()
		for _, e := range kvs {
			lookup := makeInternalKey(nil, []byte(e.k), maxSequence, KindValue)
			val, found, deleted, err := tr.get(nil, lookup)
			if err != nil || !found || deleted || string(val) != e.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
