package lru

import (
	"fmt"
	"sync"
	"testing"
)

type val struct {
	name   string
	pinned bool
}

// resident counts values across shards.
func resident[V comparable](c *Cache[V]) int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// sameShardKeys returns n distinct keys that hash to one shard, so a
// test can reason about recency order exactly.
func sameShardKeys[V comparable](c *Cache[V], n int) []string {
	var keys []string
	want := c.shardOf("k0")
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shardOf(k) == want {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestGetPutPeekRemove(t *testing.T) {
	c := New[*val](8, 1<<20, nil)
	a, b := &val{name: "a"}, &val{name: "b"}
	c.Put("k", a, 1, 100)
	if v, ok := c.Get("k"); !ok || v != a {
		t.Fatalf("Get = %v %v", v, ok)
	}
	if _, ok := c.Peek("absent"); ok {
		t.Fatal("phantom value")
	}
	c.Put("k", b, 1, 40) // replaces a; a's charge leaves with it
	if v, _ := c.Peek("k"); v != b {
		t.Fatalf("Peek after replace = %v", v)
	}
	if c.Entries() != 1 || c.Bytes() != 40 {
		t.Fatalf("gauges after replace: entries=%d bytes=%d", c.Entries(), c.Bytes())
	}
	if c.Remove("k", a) {
		t.Fatal("Remove dropped a value that is no longer resident")
	}
	if !c.Remove("k", b) || c.Entries() != 0 || c.Bytes() != 0 {
		t.Fatalf("Remove left entries=%d bytes=%d", c.Entries(), c.Bytes())
	}
	if c.Evictions() != 0 {
		t.Fatalf("replace/remove counted as evictions: %d", c.Evictions())
	}
}

// TestEvictsLeastRecentlyUsed: within one shard the tail goes first,
// and Get is what moves a value off the tail.
func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[*val](3, 1<<20, nil)
	keys := sameShardKeys(c, 4)
	for _, k := range keys[:3] {
		c.Put(k, &val{name: k}, 1, 1)
	}
	c.Get(keys[0]) // keys[1] is now least recently used
	c.Put(keys[3], &val{name: keys[3]}, 1, 1)
	if _, ok := c.Peek(keys[1]); ok {
		t.Fatal("least recently used value survived the overflow")
	}
	for _, k := range []string{keys[0], keys[2], keys[3]} {
		if _, ok := c.Peek(k); !ok {
			t.Fatalf("%s evicted ahead of the LRU value", k)
		}
	}
	if c.Evictions() != 1 || c.Entries() != 3 {
		t.Fatalf("evictions=%d entries=%d", c.Evictions(), c.Entries())
	}
}

// TestInsertsAreBoundedByTheEntryCap: every insert runs the evict loop,
// including GetOrPut of values that never grow — the plan cache's
// uncacheable families, which used to sit outside the caps.
func TestInsertsAreBoundedByTheEntryCap(t *testing.T) {
	c := New[*val](4, 1<<20, nil)
	for i := 0; i < 10000; i++ {
		c.GetOrPut(fmt.Sprintf("shape-%d", i), func() *val { return &val{} }, 1, 0)
	}
	if n := resident(c); n > 4+shardCount {
		t.Fatalf("%d values resident under an entry cap of 4", n)
	}
	if c.Entries() > 4+shardCount || c.Evictions() == 0 {
		t.Fatalf("entries=%d evictions=%d", c.Entries(), c.Evictions())
	}
}

func TestByteCapEvicts(t *testing.T) {
	c := New[*val](1<<30, 1000, nil)
	keys := sameShardKeys(c, 4)
	for _, k := range keys {
		c.Put(k, &val{name: k}, 1, 400)
	}
	if c.Bytes() > 1000 || c.Evictions() != 2 {
		t.Fatalf("bytes=%d evictions=%d", c.Bytes(), c.Evictions())
	}
}

// TestChargeGrowsTheResidentValueOnly: a value that grew after insert
// is charged the difference, which can evict; a value that already
// left is charged nothing.
func TestChargeGrowsTheResidentValueOnly(t *testing.T) {
	c := New[*val](8, 1000, nil)
	keys := sameShardKeys(c, 2)
	a, b := &val{name: "a"}, &val{name: "b"}
	c.Put(keys[0], a, 1, 100)
	got, inserted := c.GetOrPut(keys[0], func() *val { return b }, 1, 0)
	if inserted || got != a {
		t.Fatalf("GetOrPut over a resident value = %v inserted=%t", got, inserted)
	}
	c.Put(keys[1], b, 1, 100)
	if !c.Charge(keys[0], a, 2, 300) || c.Entries() != 4 || c.Bytes() != 500 {
		t.Fatalf("after charge: entries=%d bytes=%d", c.Entries(), c.Bytes())
	}
	// Charging b past the byte cap evicts the tail — a, touched last by
	// the GetOrPut above but before b's insert — with its whole charge.
	if !c.Charge(keys[1], b, 0, 700) {
		t.Fatal("charge of a resident value refused")
	}
	if _, ok := c.Peek(keys[0]); ok {
		t.Fatal("tail survived a charge past the byte cap")
	}
	if c.Entries() != 1 || c.Bytes() != 800 {
		t.Fatalf("after evicting charge: entries=%d bytes=%d", c.Entries(), c.Bytes())
	}
	if c.Charge(keys[0], a, 1, 50) || c.Bytes() != 800 {
		t.Fatalf("evicted value charged: bytes=%d", c.Bytes())
	}
}

// TestHeldChargeStaysUntilRelease: onRemove returning true keeps the
// value's charge on the gauges after it left the map.
func TestHeldChargeStaysUntilRelease(t *testing.T) {
	removed := 0
	c := New[*val](8, 1<<20, func(v *val) bool {
		removed++
		return v.pinned
	})
	p, q := &val{name: "p", pinned: true}, &val{name: "q"}
	c.Put("p", p, 1, 100)
	c.Put("q", q, 1, 10)
	if n := c.Purge(); n != 2 || removed != 2 {
		t.Fatalf("purged %d, onRemove ran %d times", n, removed)
	}
	if _, ok := c.Get("p"); ok {
		t.Fatal("purged value still reachable")
	}
	if c.Entries() != 1 || c.Bytes() != 100 {
		t.Fatalf("held charge released early: entries=%d bytes=%d", c.Entries(), c.Bytes())
	}
	c.Release(1, 100)
	if c.Entries() != 0 || c.Bytes() != 0 {
		t.Fatalf("after release: entries=%d bytes=%d", c.Entries(), c.Bytes())
	}
}

// TestConcurrentUse drives every method from several goroutines under
// the race detector; the gauges must come back to what is resident.
func TestConcurrentUse(t *testing.T) {
	c := New[*val](32, 1<<20, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%64)
				switch i % 4 {
				case 0:
					c.Put(key, &val{name: key}, 1, 10)
				case 1:
					if v, ok := c.Get(key); ok {
						c.Charge(key, v, 1, 5)
					}
				case 2:
					c.GetOrPut(key, func() *val { return &val{name: key} }, 1, 10)
				case 3:
					if v, ok := c.Peek(key); ok {
						c.Remove(key, v)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	var entries, bytes int64
	for i := range c.shards {
		for _, e := range c.shards[i].m {
			entries += e.Value.(*node[*val]).entries
			bytes += e.Value.(*node[*val]).bytes
		}
	}
	if c.Entries() != entries || c.Bytes() != bytes {
		t.Fatalf("gauges drifted: entries=%d (resident %d) bytes=%d (resident %d)",
			c.Entries(), entries, c.Bytes(), bytes)
	}
}
