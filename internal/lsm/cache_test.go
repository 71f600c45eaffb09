package lsm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

const churnKeys = 2000

func churnKey(i int) []byte { return []byte(fmt.Sprintf("key%05d", i)) }

func churnValue(i int) []byte { return []byte(fmt.Sprintf("value-%05d-%040d", i, i)) }

// openChurnDB opens a DB whose block cache holds one block per shard (each
// shard keeps only the block it cached last) over one flushed table of
// 256-byte blocks, on OSEnv or SimEnv: every Get misses, evicts a block and
// decodes into the victim's recycled buffer.
func openChurnDB(t *testing.T, mode string) *DB {
	t.Helper()
	opts := DefaultOptions()
	opts.BlockSize = 256
	opts.BlockCacheSize = cacheShards
	opts.DisableAutoCompactions = true
	dir := t.TempDir()
	if mode == "sim" {
		opts.Env, dir = testSimEnv(), "/db"
	}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for i := 0; i < churnKeys; i++ {
		if err := db.Put(nil, churnKey(i), churnValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	return db
}

// checkChurnEntry fails unless key and value are entry i's.
func checkChurnEntry(i int, key, value []byte) error {
	if !bytes.Equal(key, churnKey(i)) || !bytes.Equal(value, churnValue(i)) {
		return fmt.Errorf("entry %d reads %q = %q", i, key, value)
	}
	return nil
}

// TestBlockHandleOutlivesEviction: an iterator parks mid-block, Gets churn
// a one-block-per-shard cache until that block is evicted and the buffers
// of evicted blocks are decoded into again, and the iterator resumes. Every
// remaining key and value must read intact: the iterator's handle keeps its
// block's buffer out of the spares until it moves on.
func TestBlockHandleOutlivesEviction(t *testing.T) {
	for _, mode := range []string{"os", "sim"} {
		t.Run(mode, func(t *testing.T) {
			db := openChurnDB(t, mode)
			it := db.NewIterator(nil)
			defer it.Close()
			n := 0
			for it.SeekToFirst(); it.Valid(); it.Next() {
				if err := checkChurnEntry(n, it.Key(), it.Value()); err != nil {
					t.Fatal(err)
				}
				if n++; n != 3 {
					continue
				}
				evicts := db.stats.Get(TickerBlockCacheEvict)
				for i := 0; i < churnKeys; i++ {
					if v, err := db.Get(nil, churnKey(i)); err != nil || !bytes.Equal(v, churnValue(i)) {
						t.Fatalf("Get(%s) = %q, %v", churnKey(i), v, err)
					}
				}
				// Each shard keeps one block, so the churn evicts nearly
				// every block it reads, the parked one included.
				if evicted := db.stats.Get(TickerBlockCacheEvict) - evicts; evicted < churnKeys/10 {
					t.Fatalf("the churn evicted %d blocks, want every block", evicted)
				}
			}
			if err := it.Err(); err != nil || n != churnKeys {
				t.Fatalf("iterator read %d of %d entries, err %v", n, churnKeys, err)
			}
		})
	}
}

// TestBlockHandleConcurrent runs iterators and Gets side by side over a
// one-block-per-shard cache (a -race target): every block is evicted and
// its buffer recycled while other readers hold blocks, and every key and
// value must read intact.
func TestBlockHandleConcurrent(t *testing.T) {
	db := openChurnDB(t, "os")
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := g; i < 3*churnKeys; i += 2 {
				k := i * 7 % churnKeys
				if v, err := db.Get(nil, churnKey(k)); err != nil || !bytes.Equal(v, churnValue(k)) {
					errs <- fmt.Errorf("Get(%s) = %q, %v", churnKey(k), v, err)
					return
				}
			}
		}(g)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				it := db.NewIterator(nil)
				n := 0
				for it.SeekToFirst(); it.Valid(); it.Next() {
					if err := checkChurnEntry(n, it.Key(), it.Value()); err != nil {
						errs <- err
						it.Close()
						return
					}
					n++
				}
				if err := it.Close(); err != nil || n != churnKeys {
					errs <- fmt.Errorf("iterator pass %d read %d of %d entries, err %v", pass, n, churnKeys, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// checkSpares fails unless every shard's spares are unreferenced and its
// live plus spare charges fit in its budget plus spareFloor blocks.
func checkSpares(t *testing.T, c *blockCache, block int64, when string) {
	t.Helper()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n, bytes := 0, int64(0)
		for h := s.spares; h != nil; h = h.next {
			if refs := h.refs.Load(); refs != 0 {
				t.Errorf("%s: shard %d keeps a spare with %d references", when, i, refs)
			}
			n++
			bytes += h.e.charge
		}
		if n != s.nspares || bytes != s.spareBytes {
			t.Errorf("%s: shard %d counts %d spares of %d bytes, its list holds %d of %d", when, i, s.nspares, s.spareBytes, n, bytes)
		}
		if limit := s.lru.budget + spareFloor*block; s.lru.used+bytes > limit {
			t.Errorf("%s: shard %d holds %d live and %d spare bytes, over %d", when, i, s.lru.used, bytes, limit)
		}
		s.mu.Unlock()
	}
}

// TestBlockHandleSpareBound churns a cache through inserts, lookups held
// across evictions, EraseID and a SetCapacity shrink: a spare is never
// handed out referenced, and live plus spare bytes stay within the budget
// plus the spare floor after each step.
func TestBlockHandleSpareBound(t *testing.T) {
	const blocks, size = 256, 4096
	block := int64(size + 64)
	c := newBlockCache(blocks * block)
	const stride = size + blockTrailerSize
	var held []*cacheHandle
	fill := func(id uint64) {
		for off := uint64(0); off < blocks/2*stride; off += stride {
			d := blockDst{spares: c.shard(id, off)}
			b := d.sized(size)
			if d.h != nil && d.h.refs.Load() != 0 {
				t.Fatalf("spare handed out with %d references", d.h.refs.Load())
			}
			h := c.Insert(id, off, d.h, b)
			if off%(8*stride) == 0 {
				held = append(held, h) // released only after it is evicted
			} else {
				h.release()
			}
		}
	}
	for id := uint64(1); id <= 6; id++ {
		fill(id)
		checkSpares(t, c, block, fmt.Sprintf("after table %d", id))
	}
	for _, h := range held {
		h.release()
	}
	checkSpares(t, c, block, "after releasing held blocks")
	c.EraseID(5)
	checkSpares(t, c, block, "after EraseID")
	c.SetCapacity(blocks / 4 * block)
	checkSpares(t, c, block, "after SetCapacity shrink")
	fill(7)
	checkSpares(t, c, block, "after refill")
}
