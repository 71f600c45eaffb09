package lsm

import (
	"reflect"
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
