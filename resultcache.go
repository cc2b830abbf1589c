package orthoq

// Semantic result cache integration: whole-result reuse with
// single-flight deduplication, layered over the plan cache. The plan
// cache saves compilation; the result cache saves execution. See
// internal/resultcache for the cache itself and DESIGN.md §14 for the
// keying argument.

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"time"

	"orthoq/internal/algebra"
	"orthoq/internal/resultcache"
	"orthoq/internal/sql/types"
	"orthoq/internal/storage"
)

// ResultCacheConfig configures the semantic result cache consulted by
// Query/QueryCfg/Stmt.Run/QueryStream. The zero value disables it —
// result caching changes when execution happens (a warm repeat returns
// without running the plan), so embedders opt in explicitly; servers
// enable it by default for wire traffic.
//
// A cached result is returned only when the plan fingerprint, the
// plan-affecting config, every bound parameter value, and the pinned
// version ID of every referenced table all match — a hit is provably
// equivalent to re-executing against the same snapshot. Any write to a
// referenced table mints new version IDs, making stale entries
// unreachable immediately (no TTL). Results served from the cache
// share row storage with every other consumer; query results are
// read-only. Only whole results are cached: a query that misses runs
// its whole plan, and nothing inside a plan is shared between queries.
type ResultCacheConfig struct {
	// Enabled turns the cache on for runs under this Config. All runs
	// on one DB handle share a single cache instance (first enabling
	// Config sizes it; later sizing fields are ignored).
	Enabled bool
	// MaxBytes caps the summed approximate footprint of cached results
	// (0 = default 32 MiB).
	MaxBytes int64
	// MaxEntries caps cached results (0 = default 4096).
	MaxEntries int64
	// MaxEntryBytes caps a single result; larger results run uncached
	// every time (0 = default MaxBytes/8).
	MaxEntryBytes int64
}

// resultCache returns the DB's result cache, creating it from cfg's
// sizing on first use.
func (db *DB) resultCache(cfg ResultCacheConfig) *resultcache.Cache {
	if c := db.rcache.Load(); c != nil {
		return c
	}
	db.rcache.CompareAndSwap(nil, resultcache.New(resultcache.Config{
		MaxBytes:      cfg.MaxBytes,
		MaxEntries:    cfg.MaxEntries,
		MaxEntryBytes: cfg.MaxEntryBytes,
	}))
	return db.rcache.Load()
}

// ResultCacheStats reports the result cache's effectiveness counters
// and live entry/byte gauges (resultcache.Stats). Zero value when no
// run has enabled the cache.
func (db *DB) ResultCacheStats() resultcache.Stats {
	if c := db.rcache.Load(); c != nil {
		return c.CacheStats()
	}
	return resultcache.Stats{}
}

// invalidateResultCache eagerly drops cached results keyed on the
// named table. Garbage collection only: the write already minted new
// version IDs, so the dropped entries could never be served again.
func (db *DB) invalidateResultCache(table string) {
	if c := db.rcache.Load(); c != nil {
		c.InvalidateTables(strings.ToLower(table))
	}
}

// purgeResultCache drops everything — Analyze republishes every table
// with fresh version IDs, so the whole cache just became unreachable.
func (db *DB) purgeResultCache() {
	if c := db.rcache.Load(); c != nil {
		c.Purge()
	}
}

// datumKey renders one value for a cache key, kind-tagged so values of
// different types never alias ("1" vs 1).
func datumKey(b *strings.Builder, d types.Datum) {
	if d.IsNull() {
		b.WriteString("null")
		return
	}
	b.WriteString(d.Kind().String())
	b.WriteByte(':')
	b.WriteString(d.String())
}

// referencedTables lists the base tables a plan reads, lowercased and
// sorted. Fixed at compile time (prepared.tables).
func referencedTables(plan algebra.Rel) []string {
	seen := map[string]struct{}{}
	algebra.VisitRel(plan, func(r algebra.Rel) bool {
		if g, ok := r.(*algebra.Get); ok {
			seen[strings.ToLower(g.Table)] = struct{}{}
		}
		return true
	})
	tables := make([]string, 0, len(seen))
	for name := range seen {
		tables = append(tables, name)
	}
	sort.Strings(tables)
	return tables
}

// resultKey builds the whole-result cache key for a prepared plan
// bound to params: the plan's compile-time prefix (fingerprint and
// identity), the bound values, and the version each referenced table
// has in the pre-pinned snapshot. ok=false when the plan is not safely
// cacheable (no snapshot, or a table the snapshot does not hold).
func resultKey(p *prepared, params []types.Datum, snap *storage.Snapshot) (string, bool) {
	if snap == nil {
		return "", false
	}
	var b strings.Builder
	var num [20]byte // fits any uint64 in decimal
	b.WriteString(p.rkey)
	b.WriteString("\x00p:")
	for _, d := range params {
		datumKey(&b, d)
		b.WriteByte(';')
	}
	for _, name := range p.tables {
		v, ok := snap.Table(name)
		if !ok {
			return "", false
		}
		b.WriteString("\x00tv:")
		b.WriteString(name)
		b.WriteByte('=')
		b.Write(strconv.AppendUint(num[:0], v.ID(), 10))
	}
	return b.String(), true
}

// approxRowsBytes estimates a materialized result's footprint for
// cache accounting: a fixed entry overhead plus every row's.
func approxRowsBytes(data []Row) int64 {
	n := int64(256)
	for _, row := range data {
		n += types.RowBytes(row)
	}
	return n
}

// run executes the plan for one request, through the result cache when
// the run is armed with it: serve a provably-equivalent cached result
// when one exists, otherwise execute under single-flight so concurrent
// identical queries admit one executor. With the cache disarmed it is
// exactly execute.
func (p *prepared) run(db *DB, params []types.Datum, cacheStatus string, r runState) (*Rows, error) {
	if r.rcache == nil {
		return p.execute(db, params, cacheStatus, false, r)
	}
	key, ok := resultKey(p, params, r.snap)
	if !ok {
		return p.execute(db, params, cacheStatus, false, r)
	}
	start := time.Now()
	goCtx := r.ctx
	if goCtx == nil {
		goCtx = context.Background()
	}
	v, src, err := r.rcache.Do(goCtx, key, p.tables, func() (any, int64, error) {
		rows, err := p.execute(db, params, cacheStatus, false, r)
		if err != nil {
			return nil, 0, err
		}
		// The cached payload is the Rows itself: it and its Data are shared
		// by every consumer and treated as immutable.
		return rows, approxRowsBytes(rows.Data), nil
	})
	if err != nil {
		return nil, err
	}
	cached := v.(*Rows)
	if src == resultcache.SrcMiss {
		// This caller executed; execute already noted metrics and the log.
		return cached, nil
	}
	// Hit or shared: copy the result header (payload rows are shared,
	// immutable) and note a run of our own — the request happened even
	// though execution did not.
	elapsed := time.Since(start)
	rows := *cached
	rows.Cache = "result"
	rows.Elapsed = elapsed
	rows.PeakMemBytes, rows.Spills, rows.Workers, rows.Morsels = 0, 0, 0, 0
	rows.spans = nil
	db.noteRun(p, "result", elapsed, int64(len(rows.Data)), nil, 0, 0, 0, 0, r)
	return &rows, nil
}

// resultCacheStatus previews — without executing, counting, or
// touching recency — whether the result cache currently holds this
// plan's result. Best-effort: the preview compiles without
// parameterization, so a parameterized cached entry for the same text
// may not be found. Returns "off" when caching is disabled, else
// "hit", "miss", or "uncacheable".
func (db *DB) resultCacheStatus(p *prepared, cfg ResultCacheConfig) string {
	if !cfg.Enabled {
		return "off"
	}
	c := db.rcache.Load()
	if c == nil {
		return "miss"
	}
	key, ok := resultKey(p, nil, db.store.Snapshot())
	if !ok {
		return "uncacheable"
	}
	if c.Contains(key) {
		return "hit"
	}
	return "miss"
}
