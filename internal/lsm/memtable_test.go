package lsm

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// TestMemtableRecycleArena frees one memtable into another and checks what
// the next memtable gets: every chunk, node slab and tower slab the first
// one carved from; node and tower slabs zeroed; under -tags poison, chunks
// filled with 0xDB. The adopting memtable then carves entries, tombstones
// among them, from the recycled memory without allocating a chunk, and reads
// every one back; a memtable already holding arena memory adopts nothing.
func TestMemtableRecycleArena(t *testing.T) {
	const n = 3000
	old := newMemtable(1, 0)
	for i := 0; i < n; i++ {
		old.add(uint64(i+1), KindValue, []byte(fmt.Sprintf("old%05d", i)), arenaTestValue(0, i))
	}
	oa := old.list.arena
	chunks, nodeSlabs, towerSlabs := oa.chunks.list, oa.nodeSlabs.list, oa.towerSlabs.list
	m := newMemtable(2, 0)
	if !m.adoptArena(old) {
		t.Fatal("an empty memtable did not adopt the retired arena")
	}
	a := &m.list.arena
	if len(a.chunks.list) != len(chunks) || len(a.nodeSlabs.list) != len(nodeSlabs) || len(a.towerSlabs.list) != len(towerSlabs) {
		t.Fatalf("recycled %d chunks, %d node slabs, %d tower slabs; the memtable carved from %d, %d, %d",
			len(a.chunks.list), len(a.nodeSlabs.list), len(a.towerSlabs.list), len(chunks), len(nodeSlabs), len(towerSlabs))
	}
	for i, c := range a.chunks.list {
		if poisonBuffers && bytes.Count(c, []byte{0xDB}) != len(c) {
			t.Fatalf("chunk %d of the freed arena is not poisoned", i)
		}
	}
	for i, s := range a.nodeSlabs.list {
		for j := range s {
			if n := &s[j]; n.key != nil || n.val != nil || n.next != nil {
				t.Fatalf("node %d of slab %d was not cleared", j, i)
			}
		}
	}
	for i, s := range a.towerSlabs.list {
		for j := range s {
			if s[j].Load() != nil {
				t.Fatalf("tower slot %d of slab %d was not cleared", j, i)
			}
		}
	}
	other := newMemtable(3, 0)
	other.add(1, KindValue, []byte("k"), []byte("v"))
	if other.adoptArena(m) {
		t.Fatal("a memtable holding arena memory adopted another arena")
	}

	for i := 0; i < n; i++ {
		kind, val := KindValue, arenaTestValue(1, i)
		if i%3 == 0 {
			kind, val = KindDelete, nil
		}
		m.add(uint64(i+1), kind, []byte(fmt.Sprintf("new%05d", i)), val)
	}
	if len(a.chunks.list) > len(chunks) {
		t.Errorf("the memtable allocated %d chunks beyond the %d recycled ones", len(a.chunks.list)-len(chunks), len(chunks))
	}
	for i := 0; i < n; i++ {
		v, found, deleted := m.get(makeInternalKey(nil, []byte(fmt.Sprintf("new%05d", i)), maxSequence, KindValue))
		switch {
		case !found:
			t.Fatalf("new%05d: not found", i)
		case i%3 == 0 && (!deleted || v != nil):
			t.Fatalf("new%05d: tombstone read as deleted=%v value of %d bytes", i, deleted, len(v))
		case i%3 != 0 && (deleted || !bytes.Equal(v, arenaTestValue(1, i))):
			t.Fatalf("new%05d: value of %d bytes does not match what was added", i, len(v))
		}
	}
	if v, found, _ := m.get(makeInternalKey(nil, []byte("old00001"), maxSequence, KindValue)); found {
		t.Fatalf("old00001 found in the adopting memtable (%d bytes)", len(v))
	}
}

// TestMemtableRecycleOneSpare checks what a family keeps over cycles of an
// automatic memtable switch followed by a manual flush: at most one arena
// beyond its active memtable's entries (a retired memtable, or a spare the
// active memtable has not carved from), and no other flushed memtable.
// Every flushed memtable but the retired one must be collected: no slot of
// cf.imm's array, nor anything else, may pin it (a finalizer on each
// reports its collection).
func TestMemtableRecycleOneSpare(t *testing.T) {
	const cycles = 4
	opts := DefaultOptions()
	opts.WriteBufferSize = 256 << 10 // ~460 of these entries
	opts.DisableInfoLog = true
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	collected := make(chan struct{}, 2*cycles)
	watch := func() {
		db.mu.Lock()
		runtime.SetFinalizer(db.defaultCF.mem, func(*memtable) { collected <- struct{}{} })
		db.mu.Unlock()
	}
	for c := 0; c < cycles; c++ {
		watch() // switched by the writes below
		for k := 0; k < 700; k++ {
			if err := db.Put(nil, []byte(fmt.Sprintf("key%05d", k)), recycleTestValue(k, c)); err != nil {
				t.Fatal(err)
			}
		}
		watch() // switched by the flush
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		db.mu.Lock()
		cf := db.defaultCF
		if cf.retired != nil && cf.mem.holdsSpare() {
			t.Errorf("cycle %d: the family keeps a retired memtable and a spare arena", c)
		}
		db.mu.Unlock()
	}
	want := 2 * cycles
	db.mu.Lock()
	if db.defaultCF.retired != nil {
		want-- // held for its arena
	}
	db.mu.Unlock()
	for got, deadline := 0, time.Now().Add(5*time.Second); got < want; {
		runtime.GC()
		select {
		case <-collected:
			got++
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d flushed memtables collected, want %d", got, 2*cycles, want)
			}
		}
	}
}

// TestFlushInstallOutOfOrder has a family's second flush (one small
// memtable) finish before its first (a large one), as two flush slots
// allow, and checks the state between the two installs: the first flush's
// memtable is still in cf.imm, so its keys read back, the WAL floor stays
// at that memtable's log, and only the second memtable is retired.
// Dropping a prefix of cf.imm instead would hide the first memtable's keys
// until its flush installs, let its WAL be deleted, and retire (then
// recycle) a memtable readers could still capture.
func TestFlushInstallOutOfOrder(t *testing.T) {
	opts := DefaultOptions()
	opts.Env = testSimEnv()
	opts.MaxBackgroundFlushes = 2
	opts.MaxWriteBufferNumber = 4
	opts.WriteBufferSize = 64 << 20 // switches only where the test makes them
	opts.DisableAutoCompactions = true
	opts.DisableInfoLog = true
	db, err := Open("/db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for k := 0; k < 4000; k++ {
		if err := db.Put(nil, []byte(fmt.Sprintf("key%05d", k)), recycleTestValue(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	db.mu.Lock()
	cf := db.defaultCF
	first := cf.mem
	if err := db.switchMemtableLocked(cf); err != nil {
		t.Fatal(err)
	}
	db.maybeScheduleFlushLocked(false)
	db.mu.Unlock()
	if err := db.Put(nil, []byte("zzz"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	second := cf.mem
	if err := db.switchMemtableLocked(cf); err != nil {
		t.Fatal(err)
	}
	db.maybeScheduleFlushLocked(false)
	rt := db.rt.(*simRuntime)
	if len(rt.done) != 2 || rt.done[0].end >= rt.done[1].end {
		db.mu.Unlock()
		t.Fatalf("want two flushes in flight, the second ending first; have %d", len(rt.done))
	}
	db.env.(*SimEnv).Clock().AdvanceTo(rt.done[0].end)
	rt.poll() // installs the second flush only
	if len(rt.done) != 1 || len(cf.imm) != 1 || cf.imm[0] != first {
		db.mu.Unlock()
		t.Fatalf("after the second flush's install: %d in flight, cf.imm %v, want [first]", len(rt.done), cf.imm)
	}
	if floor := db.vs.cfs[cf.id].logNumber; floor != first.logNum {
		t.Errorf("WAL floor %d after the second flush, want %d (the first memtable's log)", floor, first.logNum)
	}
	if cf.retired != second && cf.retired != nil {
		t.Errorf("retired %p, want the second memtable %p (or none)", cf.retired, second)
	}
	db.mu.Unlock()
	for _, k := range []int{0, 1999, 3999} {
		key := []byte(fmt.Sprintf("key%05d", k))
		v, err := db.Get(nil, key)
		if err != nil {
			t.Fatalf("get %s between the installs: %v", key, err)
		}
		if _, err := checkRecycleValue(key, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.WaitForBackgroundIdle(); err != nil {
		t.Fatal(err)
	}
}

// recycleTestValue is what key k holds at version ver in
// TestMemtableRecycleReaders: 500 bytes naming both, so any value read
// verifies against its key alone.
func recycleTestValue(k, ver int) []byte {
	v := make([]byte, 500)
	copy(v, fmt.Sprintf("k%05d v%08d", k, ver))
	for j := 16; j < len(v); j++ {
		v[j] = byte(k*7 + ver*13 + j)
	}
	return v
}

// checkRecycleValue checks that val is a value recycleTestValue gives key and
// returns its version.
func checkRecycleValue(key, val []byte) (int, error) {
	var k, ver int
	if _, err := fmt.Sscanf(string(key), "key%05d", &k); err != nil {
		return 0, fmt.Errorf("key %q: %v", key, err)
	}
	if len(val) < 16 {
		return 0, fmt.Errorf("key %q: value of %d bytes", key, len(val))
	}
	if _, err := fmt.Sscanf(string(val[:16]), "k%05d v%08d", new(int), &ver); err != nil || !bytes.Equal(val, recycleTestValue(k, ver)) {
		return 0, fmt.Errorf("key %q: value %q... does not verify", key, val[:16])
	}
	return ver, nil
}

// TestMemtableRecycleReaders runs, over a 256 KiB write buffer, an iterator
// opened before several flushes, two writers, and goroutines doing Gets and
// short scans, while flushed memtables' arenas are recycled into new ones.
// Every value read must verify, and the early iterator must see exactly the
// first version of every key. A memtable recycled while a reader can still
// see it hands that reader another memtable's entries or, under -tags
// poison, 0xDB bytes. The test also checks that arenas were recycled while
// the readers ran.
func TestMemtableRecycleReaders(t *testing.T) {
	const keys = 1000
	opts := DefaultOptions()
	opts.WriteBufferSize = 256 << 10
	opts.DisableInfoLog = true
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	wo := DefaultWriteOptions()
	key := func(k int) []byte { return []byte(fmt.Sprintf("key%05d", k)) }
	for k := 0; k < keys; k++ {
		if err := db.Put(wo, key(k), recycleTestValue(k, 0)); err != nil {
			t.Fatal(err)
		}
	}
	early := db.NewIterator(nil) // sees version 0 only; part of it in memtables
	defer early.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := func(err error) {
		t.Error(err)
		stop.Store(true)
	}
	for g := 0; g < 2; g++ { // writers: versions 1, 2, ... of their half of the keys
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for ver := 1; !stop.Load(); ver++ {
				for k := g; k < keys && !stop.Load(); k += 2 {
					if err := db.Put(wo, key(k), recycleTestValue(k, ver)); err != nil {
						fail(err)
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ { // readers
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []byte
			for i := g; !stop.Load(); i += 7 {
				k := key(i * 7919 % keys)
				v, err := db.AppendGetCF(buf[:0], nil, nil, k)
				if err != nil {
					fail(fmt.Errorf("get %s: %v", k, err))
					return
				}
				buf = v
				if _, err := checkRecycleValue(k, v); err != nil {
					fail(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // short scans
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			it := db.NewIterator(nil)
			n := 0
			var prev []byte
			for it.Seek(key(i * 31 % keys)); it.Valid() && n < 20; it.Next() {
				if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
					fail(fmt.Errorf("scan: %q after %q", it.Key(), prev))
					break
				}
				prev = append(prev[:0], it.Key()...)
				if _, err := checkRecycleValue(it.Key(), it.Value()); err != nil {
					fail(fmt.Errorf("scan: %v", err))
					break
				}
				n++
			}
			if err := it.Close(); err != nil {
				fail(err)
			}
		}
	}()

	// waitFlushes returns once n more flushes have installed.
	flushes := func() int64 { return db.stats.Get(TickerFlushCount) }
	waitFlushes := func(n int64) {
		for target := flushes() + n; flushes() < target && !stop.Load(); {
			time.Sleep(time.Millisecond)
		}
	}
	// The early iterator steps through its snapshot while at least ten
	// flushes retire memtables it may be reading.
	k := 0
	for early.SeekToFirst(); early.Valid() && !stop.Load(); early.Next() {
		if want := key(k); !bytes.Equal(early.Key(), want) {
			fail(fmt.Errorf("early iterator: key %q, want %q", early.Key(), want))
			break
		}
		if ver, err := checkRecycleValue(early.Key(), early.Value()); err != nil || ver != 0 {
			fail(fmt.Errorf("early iterator: version %d of %q (%v), want version 0", ver, early.Key(), err))
			break
		}
		if k++; k%100 == 0 {
			waitFlushes(1)
		}
	}
	if err := early.Close(); err != nil {
		t.Error(err)
	}
	if k != keys && !stop.Load() {
		t.Errorf("early iterator saw %d keys, want %d", k, keys)
	}

	// With the early iterator gone, arenas recycle beside the readers. A
	// memtable that still holds spare recycled chunks carves from a recycled
	// arena; sample the active one until one does.
	recycled := 0
	for i := 0; i < 20 && !stop.Load(); i++ {
		waitFlushes(1)
		db.mu.Lock()
		s := db.defaultCF.mem.list
		s.mu.Lock()
		if s.arena.chunks.used < len(s.arena.chunks.list) {
			recycled++
		}
		s.mu.Unlock()
		db.mu.Unlock()
	}
	stop.Store(true)
	wg.Wait()
	if recycled == 0 && !t.Failed() {
		t.Error("no memtable carved from a recycled arena while the readers ran")
	}
	t.Logf("%d flushes; %d of 20 samples found a recycled arena", flushes(), recycled)
}
