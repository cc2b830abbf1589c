package plancache

import (
	"sync"
	"sync/atomic"

	"orthoq/internal/lru"
)

const (
	// maxVariantsPerFamily bounds baked-literal blowup within one shape.
	maxVariantsPerFamily = 16
	// maxPlansPerVariant bounds selectivity-bucket blowup within one
	// variant.
	maxPlansPerVariant = 4
)

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Invalidations uint64
	Bypasses      uint64
	// Entries counts cached plans, plus one for each resident family
	// holding none (an uncacheable shape still occupies a slot); Bytes
	// approximates the plans' footprint.
	Entries int64
	Bytes   int64
}

// Family is all cache state for one query shape under one Config: the
// literal-position layout discovered at first compile, plus the
// variants (distinct baked literals / parameter kinds) holding plans
// per selectivity bucket.
//
// Positions, Uncacheable and epoch are immutable after publication;
// the variant map is guarded by mu.
type Family struct {
	epoch uint64
	// Uncacheable marks shapes where parameterization is unsafe or the
	// literal walk failed alignment; lookups report bypass.
	Uncacheable bool
	// Positions is the literal-position layout (nil iff Uncacheable).
	Positions []PosInfo

	mu       sync.Mutex
	variants map[string]*Variant
	// plans counts the plans stored in the family; guarded by mu.
	plans int64
}

// Variant is one (baked literals, parameter kinds) combination of a
// family. Descs is fixed by the first plan stored, so every plan in the
// variant is keyed under one consistent descriptor set.
type Variant struct {
	Descs []Descriptor

	mu    sync.Mutex
	plans map[string]any
}

// Plan returns the cached plan for a selectivity-bucket key.
func (v *Variant) Plan(bucketKey string) (any, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	p, ok := v.plans[bucketKey]
	return p, ok
}

// Variant returns the variant for vkey, or nil.
func (f *Family) Variant(vkey string) *Variant {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.variants[vkey]
}

// Cache is the LRU over plan families. Recency, the entry/byte gauges
// and eviction live in the shared core (internal/lru); every resident
// family is charged at least one entry — its first plan rides on that
// charge, further plans add one each — so shapes that hold no plan are
// bounded by the same cap as shapes that do.
type Cache struct {
	lru *lru.Cache[*Family]

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
	bypasses      atomic.Uint64
}

// New creates a cache capped at maxEntries plans and approximately
// maxBytes of plan footprint (each cap disabled when <= 0 is replaced
// by a default; use a huge value for effectively-unbounded).
func New(maxEntries int64, maxBytes int64) *Cache {
	if maxEntries <= 0 {
		maxEntries = 256
	}
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &Cache{lru: lru.New[*Family](maxEntries, maxBytes, nil)}
}

// CountHit / CountMiss / CountBypass record lookup outcomes decided by
// the caller (the caller sees the binding and bucketing steps the cache
// itself does not perform).
func (c *Cache) CountHit()    { c.hits.Add(1) }
func (c *Cache) CountMiss()   { c.misses.Add(1) }
func (c *Cache) CountBypass() { c.bypasses.Add(1) }

// Family returns the cached family for key if present and fresh under
// epoch, touching LRU recency. A stale family (compiled under an older
// epoch) is dropped and counted as an invalidation; the caller then
// recompiles as on a miss.
func (c *Cache) Family(key string, epoch uint64) *Family {
	f, ok := c.lru.Get(key)
	if !ok {
		return nil
	}
	if f.epoch != epoch {
		if c.lru.Remove(key, f) {
			c.invalidations.Add(1)
		}
		return nil
	}
	return f
}

// Peek reports the fresh family without touching recency or counters
// (EXPLAIN support).
func (c *Cache) Peek(key string, epoch uint64) *Family {
	f, ok := c.lru.Peek(key)
	if !ok || f.epoch != epoch {
		return nil
	}
	return f
}

// StoreUncacheable records that this shape must bypass the cache (the
// parameterization walk found an unsafe construct or lost literal
// alignment), so future queries of the shape skip the walk entirely.
func (c *Cache) StoreUncacheable(key string, epoch uint64) {
	c.lru.GetOrPut(key, func() *Family {
		return &Family{epoch: epoch, Uncacheable: true}
	}, 1, 0)
}

// StorePlan inserts a compiled plan. The family and variant are created
// as needed (the family adopting positions, the variant adopting
// descs). bucketOf computes the bucket key under the variant's
// authoritative descriptor set — which may be an earlier compile's, so
// the caller must not precompute the key.
func (c *Cache) StorePlan(key string, epoch uint64, positions []PosInfo,
	vkey string, descs []Descriptor, plan any, planBytes int64,
	bucketOf func([]Descriptor) string) {

	f, _ := c.lru.GetOrPut(key, func() *Family {
		return &Family{epoch: epoch, Positions: positions, variants: make(map[string]*Variant)}
	}, 1, 0)
	if f.Uncacheable || f.epoch != epoch {
		return
	}

	f.mu.Lock()
	v := f.variants[vkey]
	if v == nil {
		if len(f.variants) >= maxVariantsPerFamily {
			f.mu.Unlock()
			return
		}
		v = &Variant{Descs: descs, plans: make(map[string]any)}
		f.variants[vkey] = v
	}
	f.mu.Unlock()

	bkey := bucketOf(v.Descs)
	added := int64(0)
	v.mu.Lock()
	if _, exists := v.plans[bkey]; !exists {
		if len(v.plans) >= maxPlansPerVariant {
			// Drop an arbitrary bucket; the new plan reflects the
			// current workload's value regime.
			for k := range v.plans {
				delete(v.plans, k)
				break
			}
			added--
		}
		added++
		v.plans[bkey] = plan
	} else {
		v.plans[bkey] = plan
		planBytes = 0
	}
	v.mu.Unlock()

	// The family's first plan rides on the entry charged at insert.
	f.mu.Lock()
	before := max(f.plans, 1)
	f.plans += added
	charge := max(f.plans, 1) - before
	f.mu.Unlock()
	// A family evicted while we filled it in is charged nothing: its
	// footprint already left the gauges, so they cannot drift upward.
	c.lru.Charge(key, f, charge, planBytes)
}

// CacheStats snapshots the counters.
func (c *Cache) CacheStats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.lru.Evictions(),
		Invalidations: c.invalidations.Load(),
		Bypasses:      c.bypasses.Load(),
		Entries:       c.lru.Entries(),
		Bytes:         c.lru.Bytes(),
	}
}
