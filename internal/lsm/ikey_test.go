package lsm

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// newBloomFilter returns a filter builder with the given bits-per-key
// budget.
func newBloomFilter(bitsPerKey int) *bloomFilter {
	b := &bloomFilter{}
	b.reset(bitsPerKey)
	return b
}

func TestInternalKeyRoundTrip(t *testing.T) {
	ik := makeInternalKey(nil, []byte("user"), 42, KindValue)
	if string(ik.userKey()) != "user" {
		t.Errorf("userKey = %q", ik.userKey())
	}
	if ik.seq() != 42 {
		t.Errorf("seq = %d", ik.seq())
	}
	if ik.kind() != KindValue {
		t.Errorf("kind = %d", ik.kind())
	}
	del := makeInternalKey(nil, []byte("user"), 7, KindDelete)
	if del.kind() != KindDelete {
		t.Errorf("kind = %d", del.kind())
	}
}

func TestInternalKeyOrdering(t *testing.T) {
	mk := func(k string, seq uint64, kind ValueKind) internalKey {
		return makeInternalKey(nil, []byte(k), seq, kind)
	}
	cases := []struct {
		a, b internalKey
		want int // sign
	}{
		{mk("a", 1, KindValue), mk("b", 1, KindValue), -1},
		{mk("b", 1, KindValue), mk("a", 9, KindValue), 1},
		{mk("a", 5, KindValue), mk("a", 3, KindValue), -1}, // newer first
		{mk("a", 3, KindValue), mk("a", 5, KindValue), 1},
		{mk("a", 5, KindValue), mk("a", 5, KindValue), 0},
		{mk("a", 5, KindValue), mk("a", 5, KindDelete), -1}, // kind=1 sorts before kind=0
	}
	for i, c := range cases {
		got := compareInternal(c.a, c.b)
		if sign(got) != c.want {
			t.Errorf("case %d: compare(%s, %s) = %d, want sign %d", i, c.a, c.b, got, c.want)
		}
		if sign(compareInternal(c.b, c.a)) != -c.want {
			t.Errorf("case %d: asymmetric comparison", i)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

// TestQuickInternalKey checks encode/decode and ordering invariants over
// random inputs.
func TestQuickInternalKey(t *testing.T) {
	fn := func(key []byte, seqRaw uint64, kindBit bool) bool {
		seq := seqRaw & maxSequence
		kind := KindValue
		if kindBit {
			kind = KindDelete
		}
		ik := makeInternalKey(nil, key, seq, kind)
		return bytes.Equal(ik.userKey(), key) && ik.seq() == seq && ik.kind() == kind
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

// insertKV copies key and val into a node carved from sl's arena and links it.
func insertKV(sl *skiplist, key internalKey, val []byte) {
	n := sl.newNode(len(key), len(val))
	copy(n.key, key)
	copy(n.val, val)
	sl.insert(n)
}

func TestSkiplistBasic(t *testing.T) {
	sl := newSkiplist(1)
	keys := []string{"delta", "alpha", "charlie", "bravo"}
	for i, k := range keys {
		insertKV(sl, makeInternalKey(nil, []byte(k), uint64(i+1), KindValue), []byte("v"+k))
	}
	if sl.count() != 4 {
		t.Fatalf("count = %d", sl.count())
	}
	it := &skipIter{list: sl}
	it.SeekToFirst()
	var got []string
	for it.Valid() {
		got = append(got, string(it.Key().userKey()))
		it.Next()
	}
	want := []string{"alpha", "bravo", "charlie", "delta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	// Seek semantics.
	it.Seek(makeInternalKey(nil, []byte("bz"), maxSequence, KindValue))
	if !it.Valid() || string(it.Key().userKey()) != "charlie" {
		t.Fatalf("Seek(bz) landed on %v", it.Key())
	}
}

func TestSkiplistDuplicatePanics(t *testing.T) {
	sl := newSkiplist(1)
	k := makeInternalKey(nil, []byte("x"), 1, KindValue)
	insertKV(sl, k, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate internal key")
		}
	}()
	insertKV(sl, k, nil)
}

// TestQuickSkiplistSorted inserts random keys and checks iteration order and
// count.
func TestQuickSkiplistSorted(t *testing.T) {
	fn := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sl := newSkiplist(seed)
		n := 1 + r.Intn(200)
		for i := 0; i < n; i++ {
			key := make([]byte, 1+r.Intn(12))
			r.Read(key)
			insertKV(sl, makeInternalKey(nil, key, uint64(i+1), KindValue), nil)
		}
		it := &skipIter{list: sl}
		it.SeekToFirst()
		var prev internalKey
		count := 0
		for it.Valid() {
			if prev != nil && compareInternal(prev, it.Key()) >= 0 {
				return false
			}
			prev = append(internalKey(nil), it.Key()...)
			count++
			it.Next()
		}
		return count == n
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMemtableGetVisibility(t *testing.T) {
	m := newMemtable(1, 1)
	m.add(1, KindValue, []byte("k"), []byte("v1"))
	m.add(5, KindValue, []byte("k"), []byte("v2"))
	m.add(9, KindDelete, []byte("k"), nil)

	// Snapshot visibility by sequence.
	if v, found, del := m.get(makeInternalKey(nil, []byte("k"), 1, KindValue)); !found || del || string(v) != "v1" {
		t.Fatalf("get@1 = %q %v %v", v, found, del)
	}
	if v, found, del := m.get(makeInternalKey(nil, []byte("k"), 7, KindValue)); !found || del || string(v) != "v2" {
		t.Fatalf("get@7 = %q %v %v", v, found, del)
	}
	if _, found, del := m.get(makeInternalKey(nil, []byte("k"), 100, KindValue)); !found || !del {
		t.Fatalf("get@100: want tombstone, got found=%v del=%v", found, del)
	}
	if _, found, _ := m.get(makeInternalKey(nil, []byte("other"), 100, KindValue)); found {
		t.Fatal("get(other) should miss")
	}
	if m.count() != 3 || m.firstSeq.Load() != 1 || m.lastSeq.Load() != 9 {
		t.Fatalf("bookkeeping: count=%d first=%d last=%d", m.count(), m.firstSeq.Load(), m.lastSeq.Load())
	}
	if m.approximateBytes() <= 0 {
		t.Fatal("approximateBytes should be positive")
	}
}

func TestBloomFilter(t *testing.T) {
	bf := newBloomFilter(10)
	keys := make([][]byte, 0, 1000)
	for i := 0; i < 1000; i++ {
		k := []byte{byte(i), byte(i >> 8), 'k'}
		keys = append(keys, k)
		bf.add(k)
	}
	filter := bf.build()
	if filter == nil {
		t.Fatal("nil filter")
	}
	for _, k := range keys {
		if !bloomMayContain(filter, k) {
			t.Fatalf("false negative for %v", k)
		}
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		k := []byte{byte(i), byte(i >> 8), 'x'}
		if bloomMayContain(filter, k) {
			fp++
		}
	}
	// 10 bits/key ⇒ ~1% expected; allow generous slack.
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Fatalf("false positive rate %.3f too high", rate)
	}
}

func TestBloomDisabledAndEmpty(t *testing.T) {
	bf := newBloomFilter(0)
	bf.add([]byte("k"))
	if f := bf.build(); f != nil {
		t.Fatalf("disabled filter built %d bytes", len(f))
	}
	if !bloomMayContain(nil, []byte("k")) {
		t.Fatal("nil filter must match everything")
	}
	if !bloomMayContain([]byte{1}, []byte("k")) {
		t.Fatal("short filter must match everything")
	}
}
