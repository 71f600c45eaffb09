package lsm

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/ini"
)

func TestColumnFamilyBasics(t *testing.T) {
	db, _ := openTestDB(t, nil)
	defer db.Close()
	wo, ro := DefaultWriteOptions(), DefaultReadOptions()

	hot, err := db.CreateColumnFamily("hot", nil)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Name() != "hot" || hot.ID() == 0 {
		t.Fatalf("handle = %q id %d", hot.Name(), hot.ID())
	}
	if got := db.ListColumnFamilies(); len(got) != 2 || got[0] != "default" || got[1] != "hot" {
		t.Fatalf("ListColumnFamilies = %v", got)
	}
	if _, err := db.CreateColumnFamily("hot", nil); err == nil {
		t.Fatal("creating a duplicate family succeeded")
	}

	// The same key lives independently in each family; the single-CF API is
	// the default family.
	if err := db.Put(wo, []byte("k"), []byte("cold")); err != nil {
		t.Fatal(err)
	}
	if err := db.PutCF(wo, hot, []byte("k"), []byte("scorching")); err != nil {
		t.Fatal(err)
	}
	if v, _ := db.Get(ro, []byte("k")); string(v) != "cold" {
		t.Fatalf("default Get = %q", v)
	}
	if v, _ := db.GetCF(ro, hot, []byte("k")); string(v) != "scorching" {
		t.Fatalf("hot Get = %q", v)
	}
	if v, _ := db.GetCF(ro, db.DefaultColumnFamily(), []byte("k")); string(v) != "cold" {
		t.Fatalf("GetCF(default) = %q", v)
	}
	if err := db.DeleteCF(wo, hot, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetCF(ro, hot, []byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("hot Get after delete = %v", err)
	}
	if v, _ := db.Get(ro, []byte("k")); string(v) != "cold" {
		t.Fatalf("default survived hot delete = %q", v)
	}

	if _, err := db.GetColumnFamily("nope"); !errors.Is(err, ErrColumnFamilyNotFound) {
		t.Fatalf("GetColumnFamily(nope) = %v", err)
	}
}

func TestColumnFamilyIterators(t *testing.T) {
	db, _ := openTestDB(t, nil)
	defer db.Close()
	wo := DefaultWriteOptions()
	hot, err := db.CreateColumnFamily("hot", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		db.Put(wo, []byte(fmt.Sprintf("d%03d", i)), []byte("dv"))
		db.PutCF(wo, hot, []byte(fmt.Sprintf("h%03d", i)), []byte("hv"))
	}
	count := func(h *ColumnFamilyHandle, prefix string) int {
		it := db.NewIteratorCF(nil, h)
		defer it.Close()
		n := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if !strings.HasPrefix(string(it.Key()), prefix) {
				t.Fatalf("family %q leaked key %q", h.Name(), it.Key())
			}
			n++
		}
		return n
	}
	if n := count(db.DefaultColumnFamily(), "d"); n != 50 {
		t.Fatalf("default iterator saw %d keys", n)
	}
	if n := count(hot, "h"); n != 50 {
		t.Fatalf("hot iterator saw %d keys", n)
	}
}

// TestColumnFamilyReopen checks that families and their data survive a
// close/reopen via the plain single-options Open (manifest families are
// adopted) and via OpenConfig with per-family options.
func TestColumnFamilyReopen(t *testing.T) {
	db, env := openTestDB(t, nil)
	wo, ro := DefaultWriteOptions(), DefaultReadOptions()
	hot, err := db.CreateColumnFamily("hot", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		db.Put(wo, []byte(fmt.Sprintf("d%04d", i)), []byte(fmt.Sprintf("dv%d", i)))
		db.PutCF(wo, hot, []byte(fmt.Sprintf("h%04d", i)), []byte(fmt.Sprintf("hv%d", i)))
	}
	if err := db.FlushCF(hot); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	reopen := func(o *Options) *Options {
		o.Env = env
		o.WriteBufferSize = 64 << 10
		o.CreateIfMissing = false
		return o
	}
	db2, err := Open("/db", reopen(DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	hot2, err := db2.GetColumnFamily("hot")
	if err != nil {
		t.Fatalf("reopen lost the hot family: %v", err)
	}
	if v, _ := db2.GetCF(ro, hot2, []byte("h0199")); string(v) != "hv199" {
		t.Fatalf("hot after reopen = %q", v)
	}
	if v, _ := db2.Get(ro, []byte("d0199")); string(v) != "dv199" {
		t.Fatalf("default after reopen = %q", v)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	// OpenConfig gives the named family its own options, visible in Config().
	cfg := NewConfigSet(reopen(DefaultOptions()))
	cfg.CF("hot").WriteBufferSize = 128 << 10
	db3, err := OpenConfig("/db", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if got := db3.Config().Lookup("hot").WriteBufferSize; got != 128<<10 {
		t.Fatalf("hot write_buffer_size after OpenConfig = %d", got)
	}
	hot3, err := db3.GetColumnFamily("hot")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := db3.GetCF(ro, hot3, []byte("h0000")); string(v) != "hv0" {
		t.Fatalf("hot after OpenConfig = %q", v)
	}
}

// TestColumnFamilyDropReclaimsFiles flushes a named family to its own
// SSTables, drops it, and verifies the files are reclaimed and the directory
// stays clean (no orphans) across a reopen.
func TestColumnFamilyDropReclaimsFiles(t *testing.T) {
	db, env := openTestDB(t, nil)
	wo := DefaultWriteOptions()
	hot, err := db.CreateColumnFamily("hot", nil)
	if err != nil {
		t.Fatal(err)
	}
	val := strings.Repeat("v", 512)
	for i := 0; i < 300; i++ {
		if err := db.PutCF(wo, hot, []byte(fmt.Sprintf("h%04d", i)), []byte(val)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushCF(hot); err != nil {
		t.Fatal(err)
	}
	countTables := func() int {
		names, err := env.List("/db")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, name := range names {
			if strings.HasSuffix(name, ".sst") {
				n++
			}
		}
		return n
	}
	before := countTables()
	if before == 0 {
		t.Fatal("flush produced no tables")
	}
	if err := db.DropColumnFamily(hot); err != nil {
		t.Fatal(err)
	}
	if got := db.ListColumnFamilies(); len(got) != 1 || got[0] != "default" {
		t.Fatalf("families after drop = %v", got)
	}
	if _, err := db.GetCF(nil, hot, []byte("h0000")); !errors.Is(err, ErrColumnFamilyNotFound) {
		t.Fatalf("read through dropped handle = %v", err)
	}
	it := db.NewIteratorCF(nil, hot)
	if it.SeekToFirst(); it.Valid() || !errors.Is(it.Err(), ErrColumnFamilyNotFound) {
		t.Fatalf("iterator over dropped family: valid=%v Err = %v", it.Valid(), it.Err())
	}
	it.Close()
	if after := countTables(); after >= before {
		t.Fatalf("drop reclaimed nothing: %d tables before, %d after", before, after)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	checkOpts := DefaultOptions()
	checkOpts.Env = env
	rep, err := CheckDB("/db", checkOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Orphans) != 0 {
		t.Fatalf("post-drop check: issues %v orphans %v", rep.Issues, rep.Orphans)
	}

	ropts := DefaultOptions()
	ropts.Env = env
	ropts.CreateIfMissing = false
	db2, err := Open("/db", ropts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.GetColumnFamily("hot"); !errors.Is(err, ErrColumnFamilyNotFound) {
		t.Fatalf("dropped family resurrected: %v", err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConfigSetINIRoundTrip is the options-stack acceptance check: an
// OPTIONS document with two CFOptions sections loads into distinct per-family
// options and survives a write -> parse -> write cycle byte for byte.
func TestConfigSetINIRoundTrip(t *testing.T) {
	cs := NewConfigSet(DBBenchDefaults())
	cs.Default.WriteBufferSize = 64 << 20
	hot := cs.CF("hot")
	hot.WriteBufferSize = 256 << 20
	hot.BloomBitsPerKey = 14
	// A name with everything the section header syntax itself uses.
	const oddName = `a "quoted" ]bracket[ \back`
	cs.CF(oddName).BlockSize = 8192

	first := cs.ToINI().String()
	doc, err := ini.ParseString(first)
	if err != nil {
		t.Fatal(err)
	}
	loaded, unknown, err := ConfigSetFromINI(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(unknown) != 0 {
		t.Fatalf("round trip produced unknown keys %v", unknown)
	}
	if got := loaded.Default.WriteBufferSize; got != 64<<20 {
		t.Fatalf("default write_buffer_size = %d", got)
	}
	lhot := loaded.Lookup("hot")
	if lhot == nil {
		t.Fatal("hot family lost in round trip")
	}
	if lhot.WriteBufferSize != 256<<20 || lhot.BloomBitsPerKey != 14 {
		t.Fatalf("hot options = wbs %d bloom %d", lhot.WriteBufferSize, lhot.BloomBitsPerKey)
	}
	if odd := loaded.Lookup(oddName); odd == nil || odd.BlockSize != 8192 {
		t.Fatalf("family %q lost in round trip; families = %q", oddName, loaded.Names())
	}
	second := loaded.ToINI().String()
	if first != second {
		t.Fatalf("round trip is not byte-stable:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

func TestMultiGet(t *testing.T) {
	db, _ := openTestDB(t, nil)
	defer db.Close()
	wo := DefaultWriteOptions()
	for i := 0; i < 10; i++ {
		db.Put(wo, []byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	keys := [][]byte{[]byte("k3"), []byte("missing"), []byte("k7")}
	vals, errs := db.MultiGet(nil, keys)
	if len(vals) != 3 || len(errs) != 3 {
		t.Fatalf("MultiGet returned %d values, %d errors", len(vals), len(errs))
	}
	if string(vals[0]) != "v3" || errs[0] != nil {
		t.Fatalf("vals[0] = %q, %v", vals[0], errs[0])
	}
	if vals[1] != nil || !errors.Is(errs[1], ErrNotFound) {
		t.Fatalf("vals[1] = %q, %v", vals[1], errs[1])
	}
	if string(vals[2]) != "v7" || errs[2] != nil {
		t.Fatalf("vals[2] = %q, %v", vals[2], errs[2])
	}

	st := db.Statistics()
	if got := st.Get(TickerMultiGetCalls); got != 1 {
		t.Fatalf("multiget calls ticker = %d", got)
	}
	if got := st.Get(TickerMultiGetKeysRead); got != 3 {
		t.Fatalf("multiget keys ticker = %d", got)
	}
	if got := st.Get(TickerMultiGetBytesRead); got != 4 { // "v3" + "v7"
		t.Fatalf("multiget bytes ticker = %d", got)
	}

	// Empty batch: no allocation surprises, tickers still count the call.
	vals, errs = db.MultiGet(nil, nil)
	if len(vals) != 0 || len(errs) != 0 {
		t.Fatalf("empty MultiGet = %d values, %d errors", len(vals), len(errs))
	}
}

func TestMultiGetCF(t *testing.T) {
	db, _ := openTestDB(t, nil)
	defer db.Close()
	wo := DefaultWriteOptions()
	hot, err := db.CreateColumnFamily("hot", nil)
	if err != nil {
		t.Fatal(err)
	}
	db.Put(wo, []byte("a"), []byte("default-a"))
	db.PutCF(wo, hot, []byte("a"), []byte("hot-a"))
	db.PutCF(wo, hot, []byte("b"), []byte("hot-b"))

	keys := [][]byte{[]byte("a"), []byte("b")}
	vals, errs := db.MultiGetCF(nil, hot, keys)
	if string(vals[0]) != "hot-a" || string(vals[1]) != "hot-b" || errs[0] != nil || errs[1] != nil {
		t.Fatalf("hot MultiGetCF = %q %q (%v %v)", vals[0], vals[1], errs[0], errs[1])
	}
	vals, errs = db.MultiGetCF(nil, nil, keys)
	if string(vals[0]) != "default-a" || !errors.Is(errs[1], ErrNotFound) {
		t.Fatalf("default MultiGetCF = %q, %v", vals[0], errs[1])
	}

	// A dropped family fails the whole batch with the family error.
	if err := db.DropColumnFamily(hot); err != nil {
		t.Fatal(err)
	}
	_, errs = db.MultiGetCF(nil, hot, keys)
	for i, e := range errs {
		if !errors.Is(e, ErrColumnFamilyNotFound) {
			t.Fatalf("errs[%d] after drop = %v", i, e)
		}
	}
}

// TestMultiGetConcurrentWrites exercises MultiGet's consistent state capture
// while writers churn the same keys; `make race` runs it under the race
// detector.
func TestMultiGetConcurrentWrites(t *testing.T) {
	db, _ := openTestDB(t, func(o *Options) {
		o.AllowConcurrentMemtableWrite = true
	})
	defer db.Close()
	wo := DefaultWriteOptions()
	const nkeys = 16
	keys := make([][]byte, nkeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%02d", i))
		if err := db.Put(wo, keys[i], []byte("val-0")); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 1; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				for i := w; i < nkeys; i += 2 {
					db.Put(wo, keys[i], []byte(fmt.Sprintf("val-%d", round)))
				}
			}
		}()
	}
	for round := 0; round < 200; round++ {
		vals, errs := db.MultiGet(nil, keys)
		for i := range keys {
			if errs[i] != nil {
				t.Fatalf("round %d key %s: %v", round, keys[i], errs[i])
			}
			if !strings.HasPrefix(string(vals[i]), "val-") {
				t.Fatalf("round %d key %s holds garbage %q", round, keys[i], vals[i])
			}
		}
	}
	close(stop)
	wg.Wait()
}
