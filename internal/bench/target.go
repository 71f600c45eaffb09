package bench

import (
	"errors"
	"math/rand"

	"repro/internal/lsm"
	"repro/internal/server"
)

// target is the store a worker's operations land on. cf arguments index the
// workload's column-family list. A key the store does not hold comes back as
// the store's own not-found error (see isMiss); any other error is a failed
// operation.
type target interface {
	// get appends the value stored for key to dst, which the caller owns and
	// reuses, so a read allocates nothing once dst has grown.
	get(dst []byte, cf int, key []byte) ([]byte, error)
	put(cf int, key, value []byte) error
	delete(cf int, key []byte) error
	// scan seeks to start and iterates up to n entries; bytes is the keys and
	// values it passed over.
	scan(cf int, start []byte, n int) (bytes int64, err error)
	// multiGet's results are positional.
	multiGet(cf int, keys [][]byte) (vals [][]byte, errs []error)
	// writeBatch applies the preload's next chunk of puts.
	writeBatch(entries []batchEntry) error
}

// isMiss reports whether err is either store's "no such key": an answer, not
// a failure.
func isMiss(err error) bool {
	return errors.Is(err, lsm.ErrNotFound) || errors.Is(err, server.ErrNotFound)
}

// batchEntry is one preload put.
type batchEntry struct {
	cf         int
	key, value []byte
}

// dbTarget is the embedded engine, addressed through column-family handles.
type dbTarget struct {
	db    *lsm.DB
	sim   *lsm.SimEnv               // nil on the OS filesystem
	cfs   []*lsm.ColumnFamilyHandle // nil entry = default family
	batch *lsm.WriteBatch           // writeBatch scratch
	wo    *lsm.WriteOptions
}

// newDBTarget resolves the named families onto handles, creating families
// the database does not have yet (matching db_bench, which creates its
// -num_column_families on first use).
func newDBTarget(db *lsm.DB, names []string) (*dbTarget, error) {
	t := &dbTarget{db: db, batch: lsm.NewWriteBatch(), wo: lsm.DefaultWriteOptions()}
	t.sim, _ = db.Env().(*lsm.SimEnv)
	for _, name := range names {
		if name == "" || name == lsm.DefaultColumnFamilyName {
			t.cfs = append(t.cfs, nil)
			continue
		}
		h, err := db.GetColumnFamily(name)
		if err != nil {
			if h, err = db.CreateColumnFamily(name, nil); err != nil {
				return nil, err
			}
		}
		t.cfs = append(t.cfs, h)
	}
	return t, nil
}

func (t *dbTarget) get(dst []byte, cf int, key []byte) ([]byte, error) {
	return t.db.AppendGetCF(dst, nil, t.cfs[cf], key)
}

func (t *dbTarget) put(cf int, key, value []byte) error {
	return t.db.PutCF(nil, t.cfs[cf], key, value)
}

func (t *dbTarget) delete(cf int, key []byte) error {
	return t.db.DeleteCF(nil, t.cfs[cf], key)
}

func (t *dbTarget) scan(cf int, start []byte, n int) (bytes int64, err error) {
	it := t.db.NewIteratorCF(nil, t.cfs[cf])
	it.Seek(start)
	for ; n > 0 && it.Valid(); n-- {
		bytes += int64(len(it.Key()) + len(it.Value()))
		it.Next()
	}
	return bytes, it.Close()
}

func (t *dbTarget) multiGet(cf int, keys [][]byte) ([][]byte, []error) {
	return t.db.MultiGetCF(nil, t.cfs[cf], keys)
}

func (t *dbTarget) writeBatch(entries []batchEntry) error {
	t.batch.Clear()
	for _, e := range entries {
		t.batch.PutCF(t.cfs[e.cf], e.key, e.value)
	}
	err := t.db.Write(t.wo, t.batch)
	if t.sim != nil {
		// Preload time passes on the virtual clock too.
		t.sim.Clock().Advance(t.sim.TakeOpCost())
	}
	return err
}

// wireTarget is a kvserver reached through one pipelined client connection,
// addressed through column-family names. Workers share it: every request is
// one Client call, which is safe for concurrent use.
type wireTarget struct {
	c   *server.Client
	cfs []string // "" = default family
}

func (t *wireTarget) get(dst []byte, cf int, key []byte) ([]byte, error) {
	v, err := t.c.Get(t.cfs[cf], key)
	return append(dst, v...), err
}

func (t *wireTarget) put(cf int, key, value []byte) error {
	return t.c.Put(t.cfs[cf], key, value)
}

func (t *wireTarget) delete(cf int, key []byte) error {
	return t.c.Delete(t.cfs[cf], key)
}

func (t *wireTarget) scan(cf int, start []byte, n int) (bytes int64, err error) {
	pairs, err := t.c.Scan(t.cfs[cf], start, n)
	for _, kv := range pairs {
		bytes += int64(len(kv.Key) + len(kv.Value))
	}
	return bytes, err
}

func (t *wireTarget) multiGet(cf int, keys [][]byte) ([][]byte, []error) {
	return t.c.MultiGet(t.cfs[cf], keys)
}

func (t *wireTarget) writeBatch(entries []batchEntry) error {
	frame := make([]server.BatchEntry, len(entries))
	for i, e := range entries {
		frame[i] = server.BatchEntry{CF: t.cfs[e.cf], Key: e.key, Value: e.value}
	}
	return t.c.Batch(frame)
}

// preload bulk-loads key ids [lo, hi) through t, unmeasured, in random order
// (like db_bench -use_existing_db preparation via fillrandom) and in chunks
// of 512 puts.
func preload(t target, spec *Spec, seed int64, lo, hi uint64) error {
	const chunk = 512
	rng := rand.New(rand.NewSource(seed))
	values := newValueGen(rng, 0.5)
	keys := newKeyGen(spec.KeySize)
	ncf := uint64(len(spec.families()))
	// keyGen recycles its buffer, so each entry of a chunk needs its own key
	// bytes; values are slices of valueGen's immutable pool and need no copy.
	keyBuf := make([]byte, 0, chunk*len(keys.buf))
	entries := make([]batchEntry, 0, chunk)
	perm := rng.Perm(int(hi - lo))
	for i, p := range perm {
		id := lo + uint64(p)
		keyBuf = append(keyBuf, keys.Key(id)...)
		key := keyBuf[len(keyBuf)-len(keys.buf):]
		entries = append(entries, batchEntry{cf: int(id % ncf), key: key, value: values.Value(spec.ValueSize)})
		if len(entries) == chunk || i == len(perm)-1 {
			if err := t.writeBatch(entries); err != nil {
				return err
			}
			entries, keyBuf = entries[:0], keyBuf[:0]
		}
	}
	return nil
}
