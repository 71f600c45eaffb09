package lsm

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestLRU(t *testing.T) {
	type cache = lru[string, int]
	add := func(k string, charge int64) func(*cache) {
		return func(c *cache) { c.add(k, int(charge), charge) }
	}
	get := func(k string) func(*cache) { return func(c *cache) { c.get(k) } }
	remove := func(k string) func(*cache) { return func(c *cache) { c.remove(k) } }
	resize := func(budget int64) func(*cache) { return func(c *cache) { c.resize(budget) } }
	for _, tc := range []struct {
		name        string
		budget      int64
		ops         []func(*cache)
		wantKeys    []string // most recent first
		wantUsed    int64
		wantEvicted []string // in eviction order
	}{
		{
			name:     "replace updates charge and recency",
			budget:   10,
			ops:      []func(*cache){add("a", 2), add("b", 3), add("a", 4), add("c", 4)},
			wantKeys: []string{"c", "a"}, wantUsed: 8, wantEvicted: []string{"b"},
		},
		{
			name:     "get refreshes recency",
			budget:   3,
			ops:      []func(*cache){add("a", 1), add("b", 1), add("c", 1), get("a"), add("d", 1)},
			wantKeys: []string{"d", "a", "c"}, wantUsed: 3, wantEvicted: []string{"b"},
		},
		{
			name:     "oversized entry survives its own add",
			budget:   5,
			ops:      []func(*cache){add("a", 2), add("big", 9)},
			wantKeys: []string{"big"}, wantUsed: 9, wantEvicted: []string{"a"},
		},
		{
			name:     "oversized entry goes on the next add",
			budget:   5,
			ops:      []func(*cache){add("a", 2), add("big", 9), add("b", 1)},
			wantKeys: []string{"b"}, wantUsed: 1, wantEvicted: []string{"a", "big"},
		},
		{
			name:     "resize to 0 empties and calls back once per entry",
			budget:   10,
			ops:      []func(*cache){add("a", 1), add("b", 1), add("c", 1), resize(0)},
			wantKeys: nil, wantUsed: 0, wantEvicted: []string{"a", "b", "c"},
		},
		{
			name:     "resize shrinks from the tail",
			budget:   10,
			ops:      []func(*cache){add("a", 4), add("b", 4), resize(5)},
			wantKeys: []string{"b"}, wantUsed: 4, wantEvicted: []string{"a"},
		},
		{
			name:     "remove does not call back",
			budget:   10,
			ops:      []func(*cache){add("a", 1), add("b", 2), remove("a"), remove("missing")},
			wantKeys: []string{"b"}, wantUsed: 2, wantEvicted: nil,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var evicted []string
			var c cache
			c.init(tc.budget, func(k string, _ int) {
				if _, ok := c.m[k]; ok {
					t.Errorf("evicted %q still mapped", k)
				}
				evicted = append(evicted, k)
			})
			for _, op := range tc.ops {
				op(&c)
			}
			var keys []string
			for e := c.root.next; e != &c.root; e = e.next {
				keys = append(keys, e.key)
			}
			var back []string
			for e := c.root.prev; e != &c.root; e = e.prev {
				back = append([]string{e.key}, back...)
			}
			if !reflect.DeepEqual(keys, tc.wantKeys) || !reflect.DeepEqual(back, keys) {
				t.Errorf("keys = %v (tail to head %v), want %v", keys, back, tc.wantKeys)
			}
			if len(c.m) != len(tc.wantKeys) {
				t.Errorf("len = %d, want %d", len(c.m), len(tc.wantKeys))
			}
			if c.used != tc.wantUsed {
				t.Errorf("used = %d, want %d", c.used, tc.wantUsed)
			}
			if !reflect.DeepEqual(evicted, tc.wantEvicted) {
				t.Errorf("evicted = %v, want %v", evicted, tc.wantEvicted)
			}
		})
	}
}

// lruModel is the eviction rule written the slow way: a slice, most recent
// first.
type lruModel struct {
	keys    []int
	charges map[int]int64
	used    int64
	budget  int64
	evicted []int
}

func (m *lruModel) touch(k int) {
	i := slices.Index(m.keys, k)
	m.keys = slices.Insert(slices.Delete(m.keys, i, i+1), 0, k)
}

func (m *lruModel) add(k int, charge int64) {
	if old, ok := m.charges[k]; ok {
		m.used -= old
		m.touch(k)
	} else {
		m.keys = slices.Insert(m.keys, 0, k)
	}
	m.charges[k] = charge
	m.used += charge
	m.evict(k)
}

func (m *lruModel) evict(keep int) {
	for m.used > m.budget && len(m.keys) > 0 && m.keys[len(m.keys)-1] != keep {
		victim := m.keys[len(m.keys)-1]
		m.keys = m.keys[:len(m.keys)-1]
		m.used -= m.charges[victim]
		delete(m.charges, victim)
		m.evicted = append(m.evicted, victim)
	}
}

func (m *lruModel) remove(k int) {
	if i := slices.Index(m.keys, k); i >= 0 {
		m.keys = slices.Delete(m.keys, i, i+1)
		m.used -= m.charges[k]
		delete(m.charges, k)
	}
}

// TestLRURecycledEntries drives an lru and lruModel through the same random
// adds, gets, removes and resizes: entries recycled through the free list
// must leave the eviction order, the onEvict calls and the recency order
// exactly as the model has them, and every spare must be zeroed.
func TestLRURecycledEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := &lruModel{charges: map[int]int64{}, budget: 40}
	var evicted []int
	var c lru[int, *int]
	c.init(m.budget, func(k int, v *int) {
		if v == nil || *v != k {
			t.Fatalf("onEvict(%d) got value %v", k, v)
		}
		evicted = append(evicted, k)
	})
	for op := 0; op < 20000; op++ {
		k := rng.Intn(30)
		switch r := rng.Intn(20); {
		case r < 12:
			charge := 1 + rng.Int63n(8)
			v := k
			c.add(k, &v, charge)
			m.add(k, charge)
		case r < 16:
			v, ok := c.get(k)
			if _, want := m.charges[k]; ok != want || ok && *v != k {
				t.Fatalf("op %d: get(%d) = %v, %v; model has it: %v", op, k, v, ok, want)
			}
			if ok {
				m.touch(k)
			}
		case r < 19:
			v, ok := c.remove(k)
			if _, want := m.charges[k]; ok != want || ok && *v != k {
				t.Fatalf("op %d: remove(%d) = %v, %v; model has it: %v", op, k, v, ok, want)
			}
			m.remove(k)
		default:
			m.budget = rng.Int63n(60)
			c.resize(m.budget)
			m.evict(-1)
		}
		var keys []int
		for e := c.root.next; e != &c.root; e = e.next {
			keys = append(keys, e.key)
		}
		if !slices.Equal(keys, m.keys) || c.used != m.used || len(c.m) != len(m.keys) {
			t.Fatalf("op %d: keys %v used %d, model %v used %d", op, keys, c.used, m.keys, m.used)
		}
		if !slices.Equal(evicted, m.evicted) {
			t.Fatalf("op %d: evicted %v, model %v", op, evicted, m.evicted)
		}
		spares := 0
		for e := c.free; e != nil; e = e.next {
			if e.key != 0 || e.value != nil || e.charge != 0 || e.prev != nil {
				t.Fatalf("op %d: spare entry not zeroed: %+v", op, *e)
			}
			spares++
		}
		if spares != c.spares || spares > lruSpares {
			t.Fatalf("op %d: %d spares (counted %d), bound %d", op, spares, c.spares, lruSpares)
		}
	}
	if len(evicted) < 1000 {
		t.Fatalf("only %d evictions: the workload does not exercise the free list", len(evicted))
	}
}
