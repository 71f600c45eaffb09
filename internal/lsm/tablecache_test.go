package lsm

import (
	"bytes"
	"fmt"
	"testing"
)

// TestTableCacheMaxOpenFiles reads a DB of more tables than max_open_files
// allows open: the table cache keeps at most that many readers, and a table
// whose reader was evicted reads again through a reopened one.
func TestTableCacheMaxOpenFiles(t *testing.T) {
	const tables, perTable = 5, 50
	db, _ := openTestDB(t, func(o *Options) {
		o.MaxOpenFiles = 2
		o.DisableAutoCompactions = true
	})
	defer db.Close()
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%05d", i)) }
	for i := 0; i < tables*perTable; i++ {
		if err := db.Put(nil, key(i), key(i)); err != nil {
			t.Fatal(err)
		}
		if (i+1)%perTable == 0 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := db.GetMetrics().LevelFiles[0]; n < 4 {
		t.Fatalf("%d L0 tables, want at least 4", n)
	}
	misses := db.stats.Get(TickerTableCacheMiss)
	// Two passes: the second finds every table's reader evicted by the first.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < tables*perTable; i++ {
			v, err := db.Get(nil, key(i))
			if err != nil || !bytes.Equal(v, key(i)) {
				t.Fatalf("pass %d: Get(%s) = %q, %v", pass, key(i), v, err)
			}
			db.tcache.mu.Lock()
			open := len(db.tcache.lru.m)
			db.tcache.mu.Unlock()
			if open > 2 {
				t.Fatalf("pass %d: %d readers open, max_open_files=2", pass, open)
			}
		}
	}
	if reopened := db.stats.Get(TickerTableCacheMiss) - misses; reopened < 2*tables {
		t.Fatalf("%d table opens over two passes of %d tables, want every table reopened", reopened, tables)
	}
}
