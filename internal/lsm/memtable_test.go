package lsm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// arenaTestValue is the value writer g stores in its i-th add: lengths cycle
// through empty, small, chunk-straddling and (every 500th) larger than the
// arena's large-entry threshold, and the bytes name their writer and entry.
func arenaTestValue(g, i int) []byte {
	n := (i * 37) % 700
	if i%500 == 499 {
		n = arenaLargeEntry + 1
	}
	v := make([]byte, n)
	for j := range v {
		v[j] = byte(g*31 + i + j)
	}
	return v
}

// TestMemtableArenaConcurrentInsert has eight writers add into one memtable
// at once, as write-group members do under allow_concurrent_memtable_write,
// and checks that every entry came out of the shared arena whole: one
// iteration finds strictly increasing internal keys, exactly every entry, and
// every value byte for byte.
func TestMemtableArenaConcurrentInsert(t *testing.T) {
	const writers, perWriter = 8, 2000
	m := newMemtable(1, 0)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := []byte(fmt.Sprintf("key%05d", (i*7919+g)%perWriter))
				m.add(uint64(g*perWriter+i+1), KindValue, key, arenaTestValue(g, i))
			}
		}(g)
	}
	wg.Wait()
	it := &skipIter{list: m.list}
	var prev internalKey
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		k := it.Key()
		if prev != nil && compareInternal(prev, k) >= 0 {
			t.Fatalf("entry %d: key %q does not follow %q", n, k, prev)
		}
		prev = k
		seq := int(k.seq()) - 1
		g, i := seq/perWriter, seq%perWriter
		if want := fmt.Sprintf("key%05d", (i*7919+g)%perWriter); string(k.userKey()) != want {
			t.Fatalf("seq %d: user key %q, want %q", seq+1, k.userKey(), want)
		}
		if !bytes.Equal(it.Value(), arenaTestValue(g, i)) {
			t.Fatalf("seq %d: value of %d bytes does not match what writer %d added", seq+1, len(it.Value()), g)
		}
		n++
	}
	if n != writers*perWriter || m.count() != n {
		t.Fatalf("iterated %d entries, count %d, want %d", n, m.count(), writers*perWriter)
	}
}

// TestMemtableArenaNoAliasing checks that keys and values handed out of the
// arena are capped at their length, so appending to one reallocates instead
// of overwriting the next entry, and that an entry above the large-entry
// threshold round-trips.
func TestMemtableArenaNoAliasing(t *testing.T) {
	m := newMemtable(1, 0)
	m.add(1, KindValue, []byte("a"), []byte("alpha"))
	m.add(2, KindValue, []byte("b"), []byte("bravo"))
	large := bytes.Repeat([]byte("L"), arenaLargeEntry+1)
	m.add(3, KindValue, []byte("c"), large)

	lookup := func(k string) []byte {
		v, found, deleted := m.get(makeInternalKey(nil, []byte(k), maxSequence, KindValue))
		if !found || deleted {
			t.Fatalf("get(%s): found %v deleted %v", k, found, deleted)
		}
		return v
	}
	if v := lookup("a"); cap(v) != len(v) {
		t.Fatalf("get value: len %d cap %d", len(v), cap(v))
	} else {
		_ = append(v, "XXXXXXXXXXXXXXXX"...)
	}
	it := &skipIter{list: m.list}
	for it.SeekToFirst(); it.Valid(); it.Next() {
		k, v := it.Key(), it.Value()
		if cap(k) != len(k) || cap(v) != len(v) {
			t.Fatalf("entry %q: key len %d cap %d, value len %d cap %d", k.userKey(), len(k), cap(k), len(v), cap(v))
		}
		_ = append(k, "XXXXXXXXXXXXXXXX"...)
		_ = append(v, "XXXXXXXXXXXXXXXX"...)
	}
	if v := lookup("a"); string(v) != "alpha" {
		t.Fatalf("a = %q after appends", v)
	}
	if v := lookup("b"); string(v) != "bravo" {
		t.Fatalf("b = %q after appends to a", v)
	}
	if v := lookup("c"); !bytes.Equal(v, large) {
		t.Fatalf("large entry of %d bytes read back as %d bytes", len(large), len(v))
	}
	it.SeekToFirst()
	for _, want := range []string{"a", "b", "c"} {
		if !it.Valid() || string(it.Key().userKey()) != want {
			t.Fatalf("keys changed by appends: want %q", want)
		}
		it.Next()
	}
}
