// Package resultcache is the engine's semantic result cache: a
// sharded, memory-accounted LRU of materialized whole query results.
//
// The cache itself is content-agnostic — it maps opaque string keys to
// opaque payloads with a caller-declared byte footprint. Correctness
// lives entirely in the keys: callers key entries on (plan
// fingerprint, bound parameter values, plan-affecting config, pinned
// table-version IDs), so a hit is provably equivalent to re-executing
// the same plan against the same storage snapshot. Any write bumps the
// copy-on-write version ID of the written table, which changes every
// key that could observe it — stale entries become unreachable the
// instant a write publishes, with no TTL and no lock between readers
// and writers. InvalidateTables is therefore pure garbage collection
// (reclaiming unreachable entries eagerly), never a correctness
// mechanism.
//
// Three extra facilities support the engine's traffic patterns:
//
//   - Single-flight execution (Do): N concurrent identical queries
//     admit one executor; the other N-1 block on the leader and share
//     its result, relieving the admission queue under near-duplicate
//     load.
//   - Pinning: a streaming cursor serving rows out of a cached entry
//     pins it, so eviction and invalidation release the entry's bytes
//     only after the last reader unpins (the payload itself is
//     immutable and GC-safe either way; pinning keeps the accounting
//     honest while the bytes are genuinely referenced).
//   - A per-table reverse index, so eager GC after a write touches
//     only the written table's entries.
package resultcache

import (
	"context"
	"sync"
	"sync/atomic"

	"orthoq/internal/lru"
)

// Config sizes a cache. Zero fields take defaults in New.
type Config struct {
	// MaxBytes caps the summed declared footprint of all entries
	// (default 32 MiB).
	MaxBytes int64
	// MaxEntries caps the entry count (default 4096).
	MaxEntries int64
	// MaxEntryBytes caps a single entry; larger results are not
	// admitted (default MaxBytes/8). Oversize rejections are counted,
	// not errors.
	MaxEntryBytes int64
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Shared        uint64 // single-flight waiters served by a leader's run
	Inserts       uint64
	Rejected      uint64 // Put refused: payload over MaxEntryBytes
	Evictions     uint64
	Invalidations uint64
	Entries       int64
	Bytes         int64
}

// Entry is one cached payload. Val and Cols-style payload internals
// are immutable by convention: every reader shares the same backing
// data.
type Entry struct {
	key    string
	tables []string

	// Val is the caller's payload.
	Val any

	bytes int64

	// mu orders pinning against removal: a Pin either lands before the
	// entry leaves the cache (removal then holds its charge until the
	// last Unpin) or finds it gone and misses.
	mu   sync.Mutex
	refs int  // pin count
	gone bool // no longer resident
}

// Bytes returns the entry's declared footprint.
func (e *Entry) Bytes() int64 { return e.bytes }

// Cache is the LRU (recency, gauges and eviction in internal/lru) plus
// the per-table reverse index and the single-flight table.
type Cache struct {
	maxEntryBytes int64
	lru           *lru.Cache[*Entry]

	// tableIdx maps a table name to the resident entries keyed on a
	// version of that table — the reverse index behind InvalidateTables.
	imu      sync.Mutex
	tableIdx map[string]map[*Entry]struct{}

	fmu     sync.Mutex
	flights map[string]*flight

	hits          atomic.Uint64
	misses        atomic.Uint64
	shared        atomic.Uint64
	inserts       atomic.Uint64
	rejected      atomic.Uint64
	invalidations atomic.Uint64
}

type flight struct {
	done chan struct{}
	val  any
	err  error
}

// New creates a cache with the given caps (zero fields defaulted).
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 32 << 20
	}
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 4096
	}
	if cfg.MaxEntryBytes <= 0 {
		cfg.MaxEntryBytes = cfg.MaxBytes / 8
	}
	c := &Cache{
		maxEntryBytes: cfg.MaxEntryBytes,
		tableIdx:      make(map[string]map[*Entry]struct{}),
		flights:       make(map[string]*flight),
	}
	c.lru = lru.New(cfg.MaxEntries, cfg.MaxBytes, c.left)
	return c
}

// left runs as e leaves the LRU for any reason (replaced, evicted,
// invalidated, purged): it unhooks e from the reverse index and, while
// e is pinned, holds its charge on the gauges until the last Unpin.
func (c *Cache) left(e *Entry) (hold bool) {
	c.imu.Lock()
	for _, t := range e.tables {
		if idx := c.tableIdx[t]; idx != nil {
			delete(idx, e)
			if len(idx) == 0 {
				delete(c.tableIdx, t)
			}
		}
	}
	c.imu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.gone = true
	return e.refs > 0
}

// Lookup returns the payload for key, touching LRU recency. It does
// not count a hit or miss — a caller outside Do records the outcome
// with CountHit/CountMiss.
func (c *Cache) Lookup(key string) (any, bool) {
	e, ok := c.lru.Get(key)
	if !ok {
		return nil, false
	}
	return e.Val, true
}

// Contains reports whether key is cached without touching recency or
// counters — the preview used by EXPLAIN.
func (c *Cache) Contains(key string) bool {
	_, ok := c.lru.Peek(key)
	return ok
}

// Pin returns the entry for key with its pin count raised; the caller
// must Unpin exactly once. A pinned entry's bytes stay accounted even
// if it is evicted or invalidated while pinned.
func (c *Cache) Pin(key string) (*Entry, bool) {
	e, ok := c.lru.Get(key)
	if !ok {
		return nil, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gone {
		return nil, false
	}
	e.refs++
	return e, true
}

// Unpin drops one pin. If the entry was evicted or invalidated while
// pinned, the last Unpin releases its accounted bytes.
func (c *Cache) Unpin(e *Entry) {
	e.mu.Lock()
	e.refs--
	release := e.refs == 0 && e.gone
	e.mu.Unlock()
	if release {
		c.lru.Release(1, e.bytes)
	}
}

// CountHit etc. record lookup outcomes decided outside Do.
func (c *Cache) CountHit()  { c.hits.Add(1) }
func (c *Cache) CountMiss() { c.misses.Add(1) }

// Put admits a payload under key, replacing any existing entry.
// tables lists the table names whose version IDs participate in key
// (the reverse index for eager invalidation). Returns false if the
// payload exceeds the single-entry cap.
func (c *Cache) Put(key string, tables []string, val any, bytes int64) bool {
	if bytes > c.maxEntryBytes {
		c.rejected.Add(1)
		return false
	}
	e := &Entry{key: key, tables: tables, Val: val, bytes: bytes}
	// Index first: if the insert below evicts e straight away, left
	// finds it in the index to unhook.
	c.imu.Lock()
	for _, t := range tables {
		idx := c.tableIdx[t]
		if idx == nil {
			idx = make(map[*Entry]struct{})
			c.tableIdx[t] = idx
		}
		idx[e] = struct{}{}
	}
	c.imu.Unlock()
	c.lru.Put(key, e, 1, bytes)
	c.inserts.Add(1)
	return true
}

// InvalidateTables eagerly drops every entry keyed on a version of any
// of the named tables. This is garbage collection, not correctness:
// the write that prompted it already minted new version IDs, so the
// dropped entries could never be looked up again.
func (c *Cache) InvalidateTables(names ...string) {
	var doomed []*Entry
	c.imu.Lock()
	for _, name := range names {
		for e := range c.tableIdx[name] {
			doomed = append(doomed, e)
		}
	}
	c.imu.Unlock()
	for _, e := range doomed {
		if c.lru.Remove(e.key, e) {
			c.invalidations.Add(1)
		}
	}
}

// Purge drops every entry (pinned entries release on last Unpin).
func (c *Cache) Purge() {
	c.invalidations.Add(uint64(c.lru.Purge()))
}

// Do is the single-flight whole-result path. It first consults the
// cache; on a miss, the first caller for key becomes the leader and
// runs fn, while concurrent callers for the same key block until the
// leader finishes and share its payload. On leader failure each waiter
// retries the lookup once and otherwise runs fn itself (the leader's
// error could be budget- or fault-specific to its own run). fn returns
// the payload and its byte footprint; a successful leader admits it
// via Put before waiters wake.
//
// The returned Source tells the caller how the payload was obtained:
// SrcHit (cache), SrcShared (leader's run, this caller waited), or
// SrcMiss (this caller executed fn). Counters are recorded here;
// callers must not double-count.
func (c *Cache) Do(ctx context.Context, key string, tables []string, fn func() (any, int64, error)) (any, Source, error) {
	if v, ok := c.Lookup(key); ok {
		c.hits.Add(1)
		return v, SrcHit, nil
	}

	c.fmu.Lock()
	if f := c.flights[key]; f != nil {
		c.fmu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, SrcMiss, ctx.Err()
		}
		if f.err == nil {
			c.shared.Add(1)
			return f.val, SrcShared, nil
		}
		// Leader failed. Its error may be specific to its run (its own
		// budget, fault injection, cancellation) — retry the cache once,
		// then execute independently without becoming a new leader.
		if v, ok := c.Lookup(key); ok {
			c.hits.Add(1)
			return v, SrcHit, nil
		}
		c.misses.Add(1)
		val, bytes, err := fn()
		if err == nil {
			c.Put(key, tables, val, bytes)
		}
		return val, SrcMiss, err
	}
	// No flight, but a leader may have published and left between the
	// lookup above and taking fmu: its Put happens before it deletes its
	// flight under fmu, so a second lookup here sees the result.
	if v, ok := c.Lookup(key); ok {
		c.fmu.Unlock()
		c.hits.Add(1)
		return v, SrcHit, nil
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.fmu.Unlock()

	c.misses.Add(1)
	defer func() {
		c.fmu.Lock()
		delete(c.flights, key)
		c.fmu.Unlock()
		close(f.done)
	}()
	val, bytes, err := fn()
	if err == nil {
		c.Put(key, tables, val, bytes)
	}
	f.val, f.err = val, err
	return val, SrcMiss, err
}

// Source classifies how Do obtained its payload.
type Source int

const (
	// SrcMiss: this caller executed the query itself.
	SrcMiss Source = iota
	// SrcHit: served from the cache.
	SrcHit
	// SrcShared: served from a concurrent leader's execution.
	SrcShared
)

// CacheStats snapshots the counters.
func (c *Cache) CacheStats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Shared:        c.shared.Load(),
		Inserts:       c.inserts.Load(),
		Rejected:      c.rejected.Load(),
		Evictions:     c.lru.Evictions(),
		Invalidations: c.invalidations.Load(),
		Entries:       c.lru.Entries(),
		Bytes:         c.lru.Bytes(),
	}
}
