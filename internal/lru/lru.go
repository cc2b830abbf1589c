// Package lru is the byte- and entry-accounted LRU core under the plan
// cache and the result cache: a maphash-sharded map from string keys to
// values, each shard a recency list, with cache-wide atomic entry/byte
// gauges and an evict-from-the-tail loop run on every insert and every
// charge. It knows nothing about what a value is; the caches
// above it own their keys, their counters beyond evictions, and what a
// hit means.
//
// Every resident value carries a charge (entries, bytes) against the
// two caps. The caps are cache-wide but eviction works one shard — the
// one that just grew — which keeps the critical section local; other
// shards converge as they take their own inserts.
package lru

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// shardCount is a power of two; per-shard mutexes keep concurrent
// lookups from convoying on one lock.
const shardCount = 16

// Cache is a sharded LRU of V. V is comparable so a caller can name
// "this value, if it is still the resident one" (Charge, Remove).
type Cache[V comparable] struct {
	maxEntries int64
	maxBytes   int64
	// onRemove, when non-nil, runs under the shard lock each time a
	// value leaves the cache (replaced, removed, evicted, purged).
	// Returning true holds the value's charge on the gauges until the
	// owner calls Release — the result cache's pinned entries, whose
	// bytes stay accounted while a stream still reads them.
	onRemove func(V) (hold bool)

	seed   maphash.Seed
	shards [shardCount]shard[V]

	entries   atomic.Int64
	bytes     atomic.Int64
	evictions atomic.Uint64
}

type shard[V comparable] struct {
	mu sync.Mutex
	m  map[string]*list.Element // Value is a *node[V]
	// recent orders the shard's nodes, most recently used at the front.
	recent list.List
}

type node[V comparable] struct {
	key            string
	val            V
	entries, bytes int64
}

// New creates a cache holding at most maxEntries charged entries and
// maxBytes charged bytes. onRemove may be nil.
func New[V comparable](maxEntries, maxBytes int64, onRemove func(V) (hold bool)) *Cache[V] {
	c := &Cache[V]{maxEntries: maxEntries, maxBytes: maxBytes, onRemove: onRemove, seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*list.Element)
	}
	return c
}

func (c *Cache[V]) shardOf(key string) *shard[V] {
	return &c.shards[maphash.String(c.seed, key)&(shardCount-1)]
}

// Get returns the value under key and marks it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) { return c.lookup(key, true) }

// Peek is Get without the recency update (EXPLAIN previews).
func (c *Cache[V]) Peek(key string) (V, bool) { return c.lookup(key, false) }

func (c *Cache[V]) lookup(key string, touch bool) (val V, ok bool) {
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.m[key]
	if e == nil {
		return val, false
	}
	if touch {
		s.recent.MoveToFront(e)
	}
	return e.Value.(*node[V]).val, true
}

// Put makes val the value under key, charged (entries, bytes) and most
// recently used, replacing any resident value, then evicts until the
// caps hold.
func (c *Cache[V]) Put(key string, val V, entries, bytes int64) {
	s := c.shardOf(key)
	s.mu.Lock()
	if old := s.m[key]; old != nil {
		c.remove(s, old)
	}
	c.insert(s, key, val, entries, bytes)
	c.evict(s)
	s.mu.Unlock()
}

// GetOrPut returns the resident value under key, marked most recently
// used; when there is none it inserts mk(), charged (entries, bytes),
// and evicts until the caps hold — so the value it returns may already
// have been evicted again, which Charge reports.
func (c *Cache[V]) GetOrPut(key string, mk func() V, entries, bytes int64) (val V, inserted bool) {
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.m[key]; e != nil {
		s.recent.MoveToFront(e)
		return e.Value.(*node[V]).val, false
	}
	val = mk()
	c.insert(s, key, val, entries, bytes)
	c.evict(s)
	return val, true
}

// Charge adds (entries, bytes) to the charge of val, which grew after
// it was inserted, then evicts until the caps hold. It reports false,
// charging nothing, when val is no longer the value under key.
func (c *Cache[V]) Charge(key string, val V, entries, bytes int64) bool {
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.resident(key, val)
	if e == nil {
		return false
	}
	n := e.Value.(*node[V])
	n.entries += entries
	n.bytes += bytes
	c.entries.Add(entries)
	c.bytes.Add(bytes)
	c.evict(s)
	return true
}

// Remove drops val if it is still the value under key.
func (c *Cache[V]) Remove(key string, val V) bool {
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.resident(key, val)
	if e == nil {
		return false
	}
	c.remove(s, e)
	return true
}

// Purge drops every value and returns how many it dropped.
func (c *Cache[V]) Purge() int {
	dropped := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for s.recent.Len() > 0 {
			c.remove(s, s.recent.Back())
			dropped++
		}
		s.mu.Unlock()
	}
	return dropped
}

// Release returns a charge that onRemove held back.
func (c *Cache[V]) Release(entries, bytes int64) {
	c.entries.Add(-entries)
	c.bytes.Add(-bytes)
}

// Entries, Bytes and Evictions read the gauges and the eviction count.
func (c *Cache[V]) Entries() int64    { return c.entries.Load() }
func (c *Cache[V]) Bytes() int64      { return c.bytes.Load() }
func (c *Cache[V]) Evictions() uint64 { return c.evictions.Load() }

// The helpers below run with s.mu held.

// resident returns key's element if val is still the value it holds.
func (s *shard[V]) resident(key string, val V) *list.Element {
	if e := s.m[key]; e != nil && e.Value.(*node[V]).val == val {
		return e
	}
	return nil
}

func (c *Cache[V]) insert(s *shard[V], key string, val V, entries, bytes int64) {
	s.m[key] = s.recent.PushFront(&node[V]{key: key, val: val, entries: entries, bytes: bytes})
	c.entries.Add(entries)
	c.bytes.Add(bytes)
}

func (c *Cache[V]) remove(s *shard[V], e *list.Element) {
	n := s.recent.Remove(e).(*node[V])
	delete(s.m, n.key)
	if c.onRemove != nil && c.onRemove(n.val) {
		return
	}
	c.entries.Add(-n.entries)
	c.bytes.Add(-n.bytes)
}

func (c *Cache[V]) evict(s *shard[V]) {
	for (c.entries.Load() > c.maxEntries || c.bytes.Load() > c.maxBytes) && s.recent.Len() > 0 {
		c.remove(s, s.recent.Back())
		c.evictions.Add(1)
	}
}
