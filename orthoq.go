// Package orthoq is a SQL query engine built around the subquery and
// aggregation optimizations of Galindo-Legaria & Joshi, "Orthogonal
// Optimization of Subqueries and Aggregation" (SIGMOD 2001):
// Apply-based algebraic decorrelation (query flattening), outerjoin
// simplification, GroupBy reordering around join variants,
// LocalGroupBy splitting, and SegmentApply segmented execution —
// composed as independent primitives inside a cost-based optimizer.
//
// Typical use:
//
//	db, _ := orthoq.OpenTPCH(0.01, 1)
//	rows, _ := db.Query(`select c_custkey from customer
//	    where 1000000 < (select sum(o_totalprice) from orders
//	                     where o_custkey = c_custkey)`)
//	fmt.Println(rows.Table())
//
// Config toggles each optimization independently, which is how the
// benchmark harness reproduces the paper's evaluation.
package orthoq

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"orthoq/internal/algebra"
	"orthoq/internal/algebrize"
	"orthoq/internal/core"
	"orthoq/internal/exec"
	"orthoq/internal/exec/faultinject"
	"orthoq/internal/obs"
	"orthoq/internal/opt"
	"orthoq/internal/plancache"
	"orthoq/internal/resultcache"
	"orthoq/internal/sql/ast"
	"orthoq/internal/sql/catalog"
	"orthoq/internal/sql/parser"
	"orthoq/internal/sql/types"
	"orthoq/internal/stats"
	"orthoq/internal/storage"
	"orthoq/internal/tpch"
	"orthoq/internal/wal"
)

// Typed execution errors, re-exported from the engine. Classify
// failures with errors.Is: every governance abort — row budget, memory
// budget with spilling disabled, cancellation, deadline, contained
// operator panic — wraps exactly one of these sentinels.
var (
	ErrRowBudget = exec.ErrRowBudget
	ErrMemBudget = exec.ErrMemBudget
	ErrCanceled  = exec.ErrCanceled
	ErrTimeout   = exec.ErrTimeout
	ErrInternal  = exec.ErrInternal
)

// InternalError is a contained operator panic (wraps ErrInternal); it
// carries the operator name and plan fingerprint for bug reports.
type InternalError = exec.InternalError

// Value is a SQL datum (NULL-aware tagged union).
type Value = types.Datum

// Row is one result tuple.
type Row = types.Row

// Catalog re-exports the schema catalog type for embedders.
type Catalog = catalog.Catalog

// Table re-exports the table schema type.
type Table = catalog.Table

// Column re-exports the column schema type.
type Column = catalog.Column

// Index re-exports the index schema type.
type Index = catalog.Index

// Config selects which of the paper's optimizations run. The zero
// value disables everything (correlated, unoptimized execution); use
// DefaultConfig for the full technique set.
type Config struct {
	// Decorrelate removes correlations during normalization (§2,
	// "query flattening"). Off = the correlated strategy.
	Decorrelate bool
	// RemoveClass2 also removes class-2 subqueries (identities (5)-(7),
	// duplicating common subexpressions; §2.5).
	RemoveClass2 bool
	// SimplifyOuterJoins converts outerjoins to joins under
	// null-rejecting predicates, including rejection derived through
	// GroupBy (§1.2).
	SimplifyOuterJoins bool
	// CostBased enables the transformation-rule optimizer (§4). Off =
	// execute the normalized plan as-is.
	CostBased bool
	// GroupByReorder enables §3.1/3.2 GroupBy reordering rules.
	GroupByReorder bool
	// LocalAgg enables §3.3 LocalGroupBy splitting and pushdown.
	LocalAgg bool
	// SegmentApply enables §3.4 segmented execution rules.
	SegmentApply bool
	// JoinReorder enables join commutativity/associativity.
	JoinReorder bool
	// CorrelatedReintro lets the optimizer turn joins back into
	// index-lookup Apply plans when cheaper (§4).
	CorrelatedReintro bool
	// Parallelism is the worker count for morsel-driven parallel
	// execution of eligible scan/join/aggregation subtrees. 0 or 1
	// executes serially (the default, preserving deterministic row
	// order); higher values may return rows in a different order than
	// serial execution (the bag of rows is identical).
	Parallelism int
	// DisableBatch is retained so existing callers keep compiling.
	//
	// Deprecated: accepted and ignored. The executor has one pull
	// protocol (batches; DESIGN §9); the row-at-a-time mode this used to
	// select no longer exists, and the field is neither plan identity
	// nor run state. It goes at the next API break.
	DisableBatch bool
	// PlanCache configures the parameterized plan cache consulted by
	// Query/QueryCfg. The zero value enables it with defaults.
	PlanCache PlanCacheConfig
	// ResultCache configures the semantic result cache: whole-result
	// reuse keyed on (plan fingerprint, bound values, table versions)
	// with single-flight deduplication. The zero value disables it (see
	// ResultCacheConfig); enablement is run state, never part of the
	// plan identity.
	ResultCache ResultCacheConfig
	// DisableRules suppresses individual rewrite rules by canonical
	// name (see RuleNames): normalization identities stay correlated,
	// cost-based transformations are never generated. Unlike the
	// observability knobs below, disabled rules change the compiled
	// plan, so they are part of the plan-cache identity.
	DisableRules []string

	// Trace enables per-operator span collection: the result's Spans()
	// method returns the operator span tree (rows, opens, batches,
	// inclusive/self wall time, memory, spills, parallel activity per
	// operator). Tracing is run state — a cached plan is shared by
	// traced and untraced runs — and costs one map insert plus two
	// time.Now calls per operator call when on, nothing when off.
	// QueryStream* ignores it: a Stream has no Spans to return.
	Trace bool
	// QueryLog, when non-nil, receives one JSON line per completed
	// query execution (success or failure): fingerprint, cache status,
	// rewrite rules applied, duration, rows, peak memory, spills,
	// parallel activity, and error class. Writes are serialized per DB
	// handle, each line in a single Write call. Run state.
	QueryLog io.Writer

	// Session, when non-empty, labels this run's query-log record and
	// metrics with a session identifier. Set by servers embedding the
	// engine (one label per wire session); pure run state, never part
	// of the plan identity.
	Session string
	// Queued records how long this run waited in an admission queue
	// before execution; it is surfaced as queued_us in the query log.
	// Set by servers embedding the engine; run state.
	Queued time.Duration

	// Timeout, when positive, bounds each query execution; expiry
	// surfaces as an error wrapping ErrTimeout. Combine with
	// QueryContext for caller-driven cancellation.
	Timeout time.Duration
	// MemBudget, when positive, caps the bytes of operator working
	// state (hash-join builds, aggregation tables, sort buffers,
	// exchange buffers) across all workers of a query. Hash joins and
	// hash aggregations degrade to partitioned temp-file (Grace-style)
	// execution at the cap; results are identical, only speed differs.
	MemBudget int64
	// DisableSpill makes MemBudget a hard cap: instead of spilling, an
	// operator that would exceed it aborts with ErrMemBudget.
	DisableSpill bool
	// SpillDir is the directory for spill partition files ("" = the
	// system temp directory). Files are always removed by the end of
	// the run, error or not.
	SpillDir string
	// RowBudget, when positive, aborts execution after this many
	// operator-row productions with ErrRowBudget — a guard against
	// runaway plans.
	RowBudget int64

	// faults installs the test-only fault-injection harness; it is
	// deliberately unexported (set by tests in this package) and, like
	// the other run-time knobs above, is not part of the plan identity.
	faults *faultinject.Injector
	// forceApply is the test-only seam that runs every Apply on one
	// path — "sequential", "batched" or "parallel" — instead of the one
	// the executor picks from the plan, so tests can hold the three
	// paths to one another. Run state, like faults: the plan is the
	// same, only the path its Applies run on differs.
	forceApply string
}

// runState is one execution's run state: the caller's context and
// pinned snapshot, the result cache when the run may use it, and the
// Config whose run-state fields (trace, log, session, budgets, timeout,
// the test seams) govern it. None of it is plan identity — a plan
// compiled once is shared by runs with different budgets and deadlines
// — so nothing here may reach prepared or planIdentity;
// TestConfigFieldsClassified holds that line.
type runState struct {
	ctx    context.Context
	cfg    *Config
	snap   *storage.Snapshot
	rcache *resultcache.Cache // nil = result caching off for this run
}

// newRun assembles a run's state. With the result cache enabled the
// store snapshot is pinned here — before compilation — so the versions
// the result key names are exactly the versions execution reads: key
// time and read time cannot straddle a concurrent publish.
func (db *DB) newRun(ctx context.Context, cfg *Config, snap *Snapshot) runState {
	r := runState{ctx: ctx, cfg: cfg}
	if snap != nil {
		r.snap = snap.sn
	}
	if cfg.ResultCache.Enabled {
		r.rcache = db.resultCache(cfg.ResultCache)
		if r.snap == nil {
			r.snap = db.store.Snapshot()
		}
	}
	return r
}

// PlanCacheConfig sizes the per-DB plan cache. The cache is created on
// first cached query; Size/Bytes from later Configs are ignored once it
// exists.
type PlanCacheConfig struct {
	// Size caps cached plans (0 = default 256).
	Size int
	// Bytes caps the approximate plan footprint (0 = default 64 MiB).
	Bytes int64
	// Disabled bypasses the cache entirely for queries run under this
	// Config.
	Disabled bool
}

// planIdentity is what a Config means to the engine: everything that
// can change the compiled plan or the algorithms that run it, and
// nothing else. It is comparable — Configs with equal identities share
// cached plans and results, Configs with different ones never do — and
// the same value is carried by a prepared plan, handed to exec.Context
// for every run, and read by EXPLAIN.
type planIdentity struct {
	removeClass2, keepCorrelated, keepOuterJoins bool
	// costBased runs the optimizer at all; seedCorrelated also offers it
	// the correlated formulation as a starting point (§4).
	costBased, seedCorrelated bool
	// disabled is the one rule switch, as sorted comma-joined names: the
	// technique flags of Config fold into it family by family (a flag is
	// exactly "none of these rules is disabled"), DisableRules name by
	// name.
	disabled string
	// parallelism is the worker count: it picks the exchange tree and
	// the row order, so it is identity too. Every other physical choice
	// is made from the plan itself.
	parallelism int
}

// identity normalizes c into its plan identity. This is the only place
// a Config is interpreted.
func (c Config) identity() planIdentity {
	id := planIdentity{
		removeClass2:   c.RemoveClass2,
		keepCorrelated: !c.Decorrelate,
		keepOuterJoins: !c.SimplifyOuterJoins,
		costBased:      c.CostBased,
		seedCorrelated: c.CorrelatedReintro && c.Decorrelate,
		parallelism:    c.Parallelism,
	}
	var off []string
	for _, family := range []struct {
		on    bool
		rules []string
	}{
		{c.GroupByReorder, opt.FamilyGroupByReorder},
		{c.LocalAgg, opt.FamilyLocalAgg},
		{c.SegmentApply, opt.FamilySegmentApply},
		{c.JoinReorder, opt.FamilyJoinReorder},
		{c.CorrelatedReintro, opt.FamilyCorrelatedReintro},
	} {
		if !family.on {
			off = append(off, family.rules...)
		}
	}
	if off = append(off, c.DisableRules...); len(off) > 0 {
		sort.Strings(off) // the set is order-insensitive
		id.disabled = strings.Join(slices.Compact(off), ",")
	}
	return id
}

// key renders the identity for the string-keyed caches. It is derived
// from the value, so a field added to planIdentity is in every key
// without anyone remembering to add it.
func (id planIdentity) key() string { return fmt.Sprintf("%v", id) }

// disabledRules is the rule switch as the lookup set core and opt take.
func (id planIdentity) disabledRules() map[string]bool {
	if id.disabled == "" {
		return nil
	}
	set := map[string]bool{}
	for _, name := range strings.Split(id.disabled, ",") {
		set[name] = true
	}
	return set
}

// RuleNames lists the canonical names of every individually disableable
// rewrite rule: the normalization identities (Apply removal, outerjoin
// simplification) followed by the cost-based transformation rules.
func RuleNames() []string {
	return append(core.NormRuleNames(), opt.RuleNames()...)
}

// DefaultConfig enables the paper's full technique set.
func DefaultConfig() Config {
	return Config{
		Decorrelate:        true,
		SimplifyOuterJoins: true,
		CostBased:          true,
		GroupByReorder:     true,
		LocalAgg:           true,
		SegmentApply:       true,
		JoinReorder:        true,
		CorrelatedReintro:  true,
	}
}

// DB is a database handle: schema, stored data, and statistics. All
// methods are safe for concurrent use.
type DB struct {
	store *storage.Store
	// statsv holds the current statistics collection; swapped
	// atomically by Analyze so concurrent query compilation and
	// execution never observe a torn update.
	statsv atomic.Pointer[stats.Collection]
	// epoch versions the catalog + statistics. Analyze, CreateTable
	// and sufficient Insert-driven drift bump it; plans cached (or
	// prepared) under an older epoch are stale.
	epoch atomic.Uint64
	// drift counts rows inserted since the last Analyze; analyzedRows
	// is the total row count the last Analyze saw. When drift exceeds
	// a fraction of analyzedRows the epoch is bumped so cached plans
	// re-optimize against reality.
	drift        atomic.Int64
	analyzedRows atomic.Int64

	// cache is the plan cache, created by the first cached query, and
	// rcache the semantic result cache, created by the first run under a
	// Config with ResultCache.Enabled (see resultcache.go). Each is
	// written once, by compare-and-swap, and sized by the Config that
	// got there first.
	cache  atomic.Pointer[plancache.Cache]
	rcache atomic.Pointer[resultcache.Cache]
	// disabledBypasses counts cache bypasses taken before/without a
	// cache instance (PlanCache.Disabled configs).
	disabledBypasses atomic.Uint64

	// metrics is the engine-wide observability registry; every
	// execution path folds into it with a few atomic adds. Snapshot via
	// Metrics(). It is allocated apart from the DB because the expvar
	// registry keeps it for the life of the process, and a pointer into
	// the DB would keep the DB and its whole store reachable too.
	metrics *obs.Metrics
	// wal and walMetrics are set by OpenDurable: the write-ahead-log
	// manager journaling every mutation, and its durability counters.
	// Both nil for in-memory handles.
	wal        *wal.Manager
	walMetrics *obs.WALMetrics
	// logMu serializes query-log writes: one lock per handle covers
	// every Config.QueryLog writer, so interleaved runs with different
	// writers still produce intact lines even when those writers alias
	// the same underlying stream.
	logMu sync.Mutex
}

// statsNow returns the current statistics collection.
func (db *DB) statsNow() *stats.Collection { return db.statsv.Load() }

// Open wraps an existing store.
func Open(store *storage.Store) *DB {
	db := &DB{store: store, metrics: new(obs.Metrics)}
	db.statsv.Store(stats.Collect(store))
	db.analyzedRows.Store(totalRows(db.statsNow(), store))
	// Expose engine counters on the process debug endpoint. First
	// handle wins the name; additional handles keep their Metrics()
	// accessor but are not re-published.
	obs.Publish("orthoq", db.metrics)
	return db
}

// Span is a node of the per-operator span tree returned by
// Rows.Spans; the alias lets callers name the type (e.g. in Walk
// closures) without reaching into internal packages.
type Span = obs.Span

// MetricsSnapshot is the point-in-time counter copy returned by
// DB.Metrics.
type MetricsSnapshot = obs.Snapshot

// QueryRecord is the schema of one Config.QueryLog line, exported so
// log consumers can unmarshal records by name.
type QueryRecord = obs.QueryRecord

// Metrics snapshots the engine-wide observability counters: queries
// run and failed (classified), rows returned, execution time histogram,
// spills, peak memory high-water, morsel-driven parallelism activity,
// and plan-cache effectiveness. All counters are monotonic since Open,
// so callers diff two snapshots to meter an interval.
func (db *DB) Metrics() MetricsSnapshot {
	s := db.metrics.Snapshot()
	cs := db.CacheStats()
	s.CacheHits = cs.Hits
	s.CacheMisses = cs.Misses
	s.CacheBypasses = cs.Bypasses
	s.CacheEvictions = cs.Evictions
	if rc := db.rcache.Load(); rc != nil {
		rs := obs.ResultCacheSnapshot(rc.CacheStats()) // same fields, by design
		s.ResultCache = &rs
	}
	if db.walMetrics != nil {
		ws := db.walMetrics.Snapshot()
		s.WAL = &ws
	}
	return s
}

func totalRows(sc *stats.Collection, store *storage.Store) int64 {
	var n int64
	for _, schema := range store.Catalog.Tables() {
		if ts := sc.Table(schema.Name); ts != nil {
			n += ts.RowCount
		}
	}
	return n
}

// OpenTPCH generates a TPC-H database at the given scale factor with
// deterministic contents for the seed, builds indexes, and collects
// statistics.
func OpenTPCH(scaleFactor float64, seed int64) (*DB, error) {
	st, err := tpch.Generate(scaleFactor, seed)
	if err != nil {
		return nil, err
	}
	return Open(st), nil
}

// NewMemory creates an empty database with a fresh catalog; create
// tables with CreateTable and load rows with Insert.
func NewMemory() *DB {
	return Open(storage.New(catalog.New()))
}

// CreateTable registers a table schema and allocates storage. The DDL
// bumps the epoch, invalidating cached plans (new tables change name
// resolution and therefore potentially any shape).
func (db *DB) CreateTable(t *Table) error {
	_, err := db.store.CreateTable(t)
	if err == nil {
		db.epoch.Add(1)
	}
	return err
}

// Insert adds rows to a table. Call Analyze after bulk loads. Inserts
// accumulate a drift counter; once drift exceeds max(64, 12.5% of the
// rows last analyzed) the epoch is bumped so cached plans re-optimize
// rather than running against badly stale cardinalities.
//
// The whole batch publishes atomically: a concurrent reader (or
// snapshot) sees either none or all of the rows, and the drift
// accounting plus any stats-epoch bump happen inside the same
// publication step — no window where another writer's publish can
// interleave between the new rows appearing and the epoch moving.
func (db *DB) Insert(table string, rows ...Row) error {
	tbl, ok := db.store.Table(table)
	if !ok {
		return fmt.Errorf("orthoq: unknown table %q", table)
	}
	err := tbl.InsertAllThen(rows, func(int) {
		threshold := db.analyzedRows.Load() / 8
		if threshold < 64 {
			threshold = 64
		}
		if d := db.drift.Add(int64(len(rows))); d >= threshold {
			db.drift.Add(-d)
			db.epoch.Add(1)
		}
	})
	if err == nil {
		// GC cached results keyed on this table's now-superseded
		// versions. Correctness does not depend on this: the publish
		// above already minted a new version ID, so stale keys can never
		// match again.
		db.invalidateResultCache(table)
	}
	return err
}

// Analyze rebuilds indexes and statistics; run it after loading data.
// It bumps the epoch: cached plans and prepared statements compiled
// against the old statistics are stale afterwards (see Stmt).
func (db *DB) Analyze() {
	for _, schema := range db.store.Catalog.Tables() {
		if tbl, ok := db.store.Table(schema.Name); ok {
			tbl.BuildIndexes()
		}
	}
	sc := stats.Collect(db.store)
	db.statsv.Store(sc)
	db.analyzedRows.Store(totalRows(sc, db.store))
	db.drift.Store(0)
	db.epoch.Add(1)
	// Journal the epoch bump so the log stays a complete mutation
	// history (recovery re-runs Analyze regardless; a dead log only
	// costs the informational record).
	if db.wal != nil {
		_, _ = db.wal.LogEpoch()
	}
	// BuildIndexes republished every table with fresh version IDs, so
	// the entire result cache just became unreachable; reclaim it now.
	db.purgeResultCache()
}

// planCache returns the cache, creating it from cfg's sizing on first
// use.
func (db *DB) planCache(cfg PlanCacheConfig) *plancache.Cache {
	if c := db.cache.Load(); c != nil {
		return c
	}
	db.cache.CompareAndSwap(nil, plancache.New(int64(cfg.Size), cfg.Bytes))
	return db.cache.Load()
}

// CacheStats reports plan-cache effectiveness counters (hits, misses,
// evictions, epoch invalidations, bypasses, cached plans and their
// approximate bytes).
func (db *DB) CacheStats() plancache.Stats {
	var s plancache.Stats
	if c := db.cache.Load(); c != nil {
		s = c.CacheStats()
	}
	s.Bypasses += db.disabledBypasses.Load()
	return s
}

// Catalog exposes the schema catalog.
func (db *DB) Catalog() *Catalog { return db.store.Catalog }

// TableRowCount returns the row count of the named table's currently
// published version (false for unknown tables).
func (db *DB) TableRowCount(name string) (int, bool) {
	tbl, ok := db.store.Table(name)
	if !ok {
		return 0, false
	}
	return tbl.Version().RowCount(), true
}

// Rows is a materialized query result.
type Rows struct {
	Columns []string
	Data    []Row
	// Plan is the executed plan rendered as text.
	Plan string
	// Elapsed is the pure execution time (compile excluded).
	Elapsed time.Duration
	// OptimizerSteps counts the expressions the optimizer's memo held
	// when it had explored the plan space.
	OptimizerSteps int
	// EstimatedCost is the cost model's value for the chosen plan.
	EstimatedCost float64
	// Trace is the per-operator execution statistics rendering; only
	// set by QueryAnalyze.
	Trace string
	// Cache reports how the caches served this query: "hit" (reused a
	// cached plan, re-binding literals), "miss" (compiled and cached),
	// "bypass" (plan cache disabled or shape uncacheable), or "result"
	// (the semantic result cache returned the materialized result —
	// execution was skipped entirely, or shared with a concurrent
	// identical query via single-flight).
	Cache string
	// PeakMemBytes is the high-water mark of accounted operator working
	// memory (hash tables, sort buffers, exchange buffers) during
	// execution.
	PeakMemBytes int64
	// Spills counts spill partition files written during execution
	// (non-zero only when MemBudget forced operators to disk).
	Spills int64
	// Workers and Morsels report morsel-driven parallel activity
	// (goroutines spawned, driver-scan morsels dispatched).
	Workers int64
	Morsels int64
	// Rules lists the rewrite rules that shaped the plan, in firing
	// order, deduplicated: normalization identities first, then the
	// cost-based transformation path of the winning plan.
	Rules []string

	// spans is the operator span tree; set when Config.Trace was on
	// (or via QueryAnalyze).
	spans *obs.Span
}

// Spans returns the per-operator span tree of a traced run (Config.Trace
// or QueryAnalyze): per operator, rows/opens/batches, inclusive (Busy)
// and exclusive (Self) wall time, memory, spills, and — at a parallel
// exchange — workers, morsels, and cumulative worker time. Returns nil
// when the run was not traced.
func (r *Rows) Spans() *Span { return r.spans }

// Table renders the result as an aligned text table.
func (r *Rows) Table() string {
	var b strings.Builder
	widths := make([]int, len(r.Columns))
	cells := make([][]string, 0, len(r.Data)+1)
	cells = append(cells, r.Columns)
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Data {
		line := make([]string, len(row))
		for i, v := range row {
			line[i] = v.String()
			if len(line[i]) > widths[i] {
				widths[i] = len(line[i])
			}
		}
		cells = append(cells, line)
	}
	for ri, line := range cells {
		for i, cell := range line {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for p := len(cell); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i, w := range widths {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Stmt is a compiled, reusable query plan.
//
// Staleness contract: the plan is compiled against the catalog and
// statistics as of Prepare and is never recompiled implicitly. After
// Analyze, CreateTable, or heavy Insert traffic bump the DB epoch, Run
// still executes the old plan — results stay correct (data is read live
// at execution), but the plan choice may no longer be cost-optimal, and
// tables created after Prepare are invisible to it. Stale reports this
// condition; re-Prepare (or use Query, whose cache re-optimizes on
// epoch change) to pick up the new state.
type Stmt struct {
	db    *DB
	prep  *prepared
	cfg   Config
	epoch uint64
}

// Prepare compiles SQL under cfg once; Run executes it repeatedly
// without re-optimizing. The returned Stmt is safe for concurrent use:
// the prepared state is read-only at run time and every Run builds a
// private execution context. cfg's governance knobs (Timeout,
// MemBudget, ...) apply to every Run; a run that fails — canceled,
// over budget, even a contained panic — leaves the Stmt fully
// reusable.
func (db *DB) Prepare(sql string, cfg Config) (*Stmt, error) {
	prep, err := db.prepare(sql, cfg.identity())
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, prep: prep, cfg: cfg, epoch: db.epoch.Load()}, nil
}

// Run executes the prepared plan.
func (s *Stmt) Run() (*Rows, error) { return s.RunSnapshot(nil, nil) }

// RunContext executes the prepared plan under a caller-supplied
// context: cancellation surfaces as an error wrapping ErrCanceled,
// deadline expiry as ErrTimeout.
func (s *Stmt) RunContext(ctx context.Context) (*Rows, error) { return s.RunSnapshot(ctx, nil) }

// RunSnapshot executes the prepared plan reading from a pinned
// snapshot (see DB.Snapshot); a nil snap behaves like RunContext.
// With the result cache enabled the key is built from the snapshot's
// own table versions, so an old pinned snapshot can never be served a
// result computed over newer data (and vice versa) — it version-
// matches or misses. This is the one statement-run body: the plan was
// fixed at Prepare, so a run is only run state around it.
func (s *Stmt) RunSnapshot(ctx context.Context, snap *Snapshot) (*Rows, error) {
	return s.prep.run(s.db, nil, "", s.db.newRun(ctx, &s.cfg, snap))
}

// Stale reports whether the database epoch moved since Prepare
// (statistics refresh, DDL, or significant insert drift), i.e. whether
// the plan was chosen under assumptions that no longer hold. Running a
// stale Stmt is permitted and returns correct results over current
// data; only plan quality is affected.
func (s *Stmt) Stale() bool {
	return s.epoch != s.db.epoch.Load()
}

// Plan returns the compiled plan text.
func (s *Stmt) Plan() string { return s.prep.text }

// Query runs SQL with the full technique set.
func (db *DB) Query(sql string) (*Rows, error) {
	return db.QuerySnapshot(nil, sql, DefaultConfig(), nil)
}

// QueryContext is Query under a caller-supplied context: cancellation
// surfaces as an error wrapping ErrCanceled, deadline expiry as
// ErrTimeout.
func (db *DB) QueryContext(ctx context.Context, sql string) (*Rows, error) {
	return db.QuerySnapshot(ctx, sql, DefaultConfig(), nil)
}

// QueryCfg runs SQL under an explicit optimization configuration,
// consulting the plan cache unless cfg.PlanCache.Disabled: repeated
// queries differing only in literal values reuse the optimized plan,
// skipping parse/normalize/optimize entirely on a hit.
func (db *DB) QueryCfg(sql string, cfg Config) (*Rows, error) {
	return db.QuerySnapshot(nil, sql, cfg, nil)
}

// QueryCfgContext is QueryCfg under a caller-supplied context. The
// context and cfg's governance knobs are pure run state: they never
// affect the cached plan or its key, so the same cached plan serves
// runs with different budgets and deadlines.
func (db *DB) QueryCfgContext(goCtx context.Context, sql string, cfg Config) (*Rows, error) {
	return db.QuerySnapshot(goCtx, sql, cfg, nil)
}

// Snapshot is a pinned, consistent point-in-time view of every table:
// queries run against it see the data exactly as of DB.Snapshot(),
// regardless of concurrent Insert/CreateTable/Analyze traffic
// (repeatable reads). Snapshots are cheap — one pointer per table, no
// copying — and need no explicit release.
type Snapshot struct {
	sn *storage.Snapshot
}

// Snapshot pins the current version of every table. It is the read
// side of the engine's lightweight transactions: take one at BEGIN,
// run any number of queries against it, drop it at COMMIT/ROLLBACK.
func (db *DB) Snapshot() *Snapshot {
	return &Snapshot{sn: db.store.Snapshot()}
}

// QuerySnapshot runs SQL under cfg reading from the pinned snapshot
// instead of the live table versions. Plan compilation (and the plan
// cache) is shared with the live path — only data access is pinned. A
// nil snap behaves exactly like QueryCfgContext.
//
// This is the one body behind the five Query* entry points: interpret
// the Config once, set up the run state, get a plan through the plan
// cache, run it. The result cache is orthogonal to the plan cache — one
// saves compilation, the other execution — so every way plan can
// answer, bypasses included, may still serve or populate cached results.
func (db *DB) QuerySnapshot(goCtx context.Context, sql string, cfg Config, snap *Snapshot) (*Rows, error) {
	r := db.newRun(goCtx, &cfg, snap)
	p, params, status, err := db.plan(sql, cfg.PlanCache, cfg.identity(), false)
	if err != nil {
		return nil, err
	}
	return p.run(db, params, status, r)
}

// plan owns the plan-cache protocol: it resolves sql under id to a
// compiled plan, the values to bind its parameter slots to, and the
// status reported as Rows.Cache — "hit" (a cached plan, re-bound to
// this text's literals), "miss" (compiled now, and stored when the
// shape parameterizes), or "bypass" (cache disabled, text not
// tokenizable, shape known uncacheable, or a literal that does not
// convert under the shape's recorded layout: compiled as written,
// outside the cache). With peek set it only previews that status for
// EXPLAIN — no counters, no recency, no compilation, no store.
func (db *DB) plan(sql string, pc PlanCacheConfig, id planIdentity, peek bool) (*prepared, []types.Datum, string, error) {
	var c *plancache.Cache
	bypass := func() (*prepared, []types.Datum, string, error) {
		if peek {
			return nil, nil, "bypass", nil
		}
		if c != nil {
			c.CountBypass()
		} else {
			db.disabledBypasses.Add(1)
		}
		// Compiling the text as written also makes the parser (or the
		// literal conversion) report its canonical error.
		p, err := db.prepare(sql, id)
		return p, nil, "bypass", err
	}
	if pc.Disabled {
		return bypass()
	}
	if c = db.cache.Load(); c == nil {
		if peek {
			return nil, nil, "miss", nil
		}
		c = db.planCache(pc)
	}
	shape, lits, err := plancache.Fingerprint(sql)
	if err != nil {
		return bypass()
	}
	key := shape + "\x00" + id.key()
	epoch := db.epoch.Load()
	var fam *plancache.Family
	if peek {
		fam = c.Peek(key, epoch)
	} else {
		fam = c.Family(key, epoch)
	}
	if fam != nil {
		if fam.Uncacheable {
			return bypass()
		}
		params, vkey, ok := plancache.Bind(fam.Positions, lits)
		if !ok {
			return bypass()
		}
		if v := fam.Variant(vkey); v != nil {
			if cached, found := v.Plan(plancache.BucketKey(v.Descs, db.statsNow(), params)); found {
				if !peek {
					c.CountHit()
				}
				return cached.(*prepared), params, "hit", nil
			}
		}
		// Known shape, new variant or bucket: compile with the new
		// values and add the plan to the family.
	}
	if peek {
		return nil, nil, "miss", nil
	}
	c.CountMiss()
	q, err := parser.Parse(sql)
	if err != nil {
		return nil, nil, "", err
	}
	if pz := plancache.Parameterize(q); pz.OK && plancache.Aligned(pz, lits) {
		if p, err := db.compile(q, id, pz.Params, nil); err == nil {
			sc := db.statsNow()
			c.StorePlan(key, epoch, pz.Positions, plancache.VariantKey(pz.Positions, pz.Texts, pz.Params),
				plancache.Descriptors(p.md, sc, p.plan), p, approxPlanBytes(p),
				func(authoritative []plancache.Descriptor) string {
					return plancache.BucketKey(authoritative, sc, pz.Params)
				})
			return p, pz.Params, "miss", nil
		}
	}
	// The shape does not parameterize — or compiling against parameter
	// slots failed, which must never surface as an error of its own.
	// Compile the pristine text and report its result; the shape is
	// remembered as uncacheable only when that works, so texts that fail
	// outright (unknown table, unknown column) never occupy the cache.
	p, err := db.prepare(sql, id)
	if err != nil {
		return nil, nil, "", err
	}
	c.StoreUncacheable(key, epoch)
	return p, nil, "miss", nil
}

// approxPlanBytes estimates a prepared plan's memory footprint for the
// cache's byte cap: a flat per-node charge over relational and scalar
// nodes plus metadata overhead and the rendered plan text.
func approxPlanBytes(p *prepared) int64 {
	nodes := int64(0)
	algebra.VisitRel(p.plan, func(r algebra.Rel) bool {
		nodes++
		for _, s := range algebra.RelScalars(r) {
			algebra.VisitScalar(s, func(algebra.Scalar) { nodes++ })
		}
		return true
	})
	return 256 + nodes*160 + int64(p.md.NumColumns())*64 + int64(len(p.text))
}

// prepared is a compiled query. Immutable once compile returns: the
// plan cache, Stmts and concurrent runs all share it.
type prepared struct {
	md       *algebra.Metadata
	plan     algebra.Rel
	outCols  []algebra.ColID
	outNames []string
	steps    int
	cost     float64
	// id is the identity the plan was compiled under; id.parallelism is
	// the worker count every run of it executes with.
	id planIdentity
	// rules records the rewrite rules that shaped the plan (see
	// Rows.Rules).
	rules []string
	// text is the plan rendered once, at compile: what Rows.Plan and
	// Stmt.Plan report, so a run formats nothing. fingerprint identifies
	// the plan in contained-panic reports (FNV-64a over text).
	text, fingerprint string
	// tables lists the referenced base tables, lowercased and sorted —
	// the result cache's invalidation index and the order its keys name
	// table versions in — and rkey is the part of those keys fixed at
	// compile time (format version, fingerprint, identity). See
	// resultKey.
	tables []string
	rkey   string
	// est is the optimizer's estimate per plan node, derived once: every
	// run sizes hash tables and picks Apply strategies from it.
	est exec.Estimates
}

// planFingerprint hashes the plan text into a short stable identifier.
func planFingerprint(text string) string {
	h := fnv.New64a()
	h.Write([]byte(text))
	return fmt.Sprintf("%016x", h.Sum64())
}

// prepare compiles SQL text as written (no parameter slots).
func (db *DB) prepare(sql string, id planIdentity) (*prepared, error) {
	q, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.compile(q, id, nil, nil)
}

// trail is what compile saw on its way to a plan; Explain asks for it.
type trail struct {
	algebrized, normalized algebra.Rel
	search                 *opt.Result // nil unless cost-based
}

// compile is the one pipeline from a parsed query to a plan: algebrize,
// normalize, and — when the identity says cost-based — seed and
// optimize. params supplies sniffed values for ast.Param slots (a
// plan-cache miss compiles against parameter slots). tr, when non-nil,
// receives the intermediate trees, so Explain prints this pipeline
// instead of being a second copy of it.
func (db *DB) compile(q ast.Query, id planIdentity, params []types.Datum, tr *trail) (*prepared, error) {
	md := algebra.NewMetadata()
	res, err := algebrize.BuildWithParams(db.store.Catalog, md, q, params)
	if err != nil {
		return nil, err
	}
	var fired []string
	nopts := core.Options{RemoveClass2: id.removeClass2, KeepCorrelated: id.keepCorrelated,
		KeepOuterJoins: id.keepOuterJoins, DisableRules: id.disabledRules()}
	seedOpts := nopts
	nopts.Record = func(rule string) { fired = append(fired, rule) }
	rel, err := core.Normalize(md, res.Rel, nopts)
	if err != nil {
		return nil, err
	}
	p := &prepared{md: md, plan: rel, outCols: res.OutCols, outNames: res.OutNames, id: id}
	st := db.statsNow()
	var search *opt.Result
	if id.costBased {
		var seeds []algebra.Rel
		if id.seedCorrelated {
			// The correlated (Apply) formulation is an additional starting
			// point, so cost-based search considers correlated execution
			// strategies alongside the flattened form (paper §4).
			seedOpts.KeepCorrelated = true
			if seed, err := core.Normalize(md, res.Rel, seedOpts); err == nil {
				seeds = append(seeds, seed)
			}
		}
		o := &opt.Optimizer{Md: md, Cat: db.store.Catalog, Stats: st,
			DisableRules: nopts.DisableRules}
		search = o.Optimize(rel, seeds...)
		p.plan, p.steps, p.cost = search.Plan, search.Explored, search.Cost
		// The correlated seed is a strategy alternative, not a rewrite of
		// the chosen plan, so only the winner's rule path is reported.
		fired = append(fired, search.Rules...)
	}
	if tr != nil {
		*tr = trail{algebrized: res.Rel, normalized: rel, search: search}
	}
	p.rules = dedupRules(fired)
	p.est = opt.PlanEstimates(md, db.store.Catalog, st, p.plan)
	p.text = algebra.FormatRel(md, p.plan)
	p.fingerprint = planFingerprint(p.text)
	p.tables = referencedTables(p.plan)
	p.rkey = "q1\x00" + p.fingerprint + "\x00" + id.key()
	return p, nil
}

// dedupRules keeps the first occurrence of each rule name, preserving
// firing order (a rule that fired fifty times during normalization
// reads once).
func dedupRules(fired []string) []string {
	if len(fired) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(fired))
	out := make([]string, 0, len(fired))
	for _, r := range fired {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// execContext builds the per-run execution context from the prepared
// plan's parallelism (plan identity) and the caller's governance knobs
// (run state). The returned cancel func is non-nil when a Timeout
// installed a deadline.
func (p *prepared) execContext(db *DB, params []types.Datum, r runState) (*exec.Context, context.CancelFunc) {
	ctx := exec.NewContext(db.store, p.md)
	ctx.Estimates = p.est
	ctx.Parallelism = p.id.parallelism
	ctx.Apply = r.cfg.forceApply
	ctx.Params = params
	ctx.RowBudget = r.cfg.RowBudget
	ctx.MemBudget = r.cfg.MemBudget
	ctx.DisableSpill = r.cfg.DisableSpill
	ctx.SpillDir = r.cfg.SpillDir
	ctx.Faults = r.cfg.faults
	ctx.Fingerprint = p.fingerprint
	ctx.Snap = r.snap
	goCtx := r.ctx
	var cancel context.CancelFunc
	if r.cfg.Timeout > 0 {
		if goCtx == nil {
			goCtx = context.Background()
		}
		goCtx, cancel = context.WithTimeout(goCtx, r.cfg.Timeout)
	}
	ctx.Ctx = goCtx
	return ctx, cancel
}

// execute runs the plan; analyze additionally renders the annotated
// trace (QueryAnalyze). The prepared value is strictly read-only here:
// per-run state (parameter bindings, evaluator, tracing, budgets) lives
// in a fresh exec.Context, which is what makes one prepared plan
// shareable between the cache and concurrent Stmt.Run callers.
func (p *prepared) execute(db *DB, params []types.Datum, cacheStatus string, analyze bool, r runState) (*Rows, error) {
	ctx, cancel := p.execContext(db, params, r)
	if cancel != nil {
		defer cancel()
	}
	tracing := analyze || r.cfg.Trace
	if tracing {
		ctx.EnableTrace()
	}
	start := time.Now()
	var out *exec.Result
	var err error
	// CPU-profile samples of this run — including morsel workers, which
	// inherit labels at spawn — carry the plan fingerprint, the same
	// identifier used by the query log and panic reports.
	obs.WithPlanLabel(ctx.Ctx, p.fingerprint, func(context.Context) {
		out, err = exec.Run(ctx, p.plan, p.outCols)
	})
	elapsed := time.Since(start)
	var nrows int64
	if err == nil {
		nrows = int64(len(out.Rows))
	}
	db.noteRun(p, cacheStatus, elapsed, nrows, err,
		ctx.PeakMem(), ctx.Spills(), ctx.WorkersSpawned(), ctx.MorselsDispatched(), r)
	if err != nil {
		return nil, err
	}
	rows := &Rows{
		Columns:        append([]string(nil), p.outNames...),
		Data:           out.Rows,
		Plan:           p.text,
		Elapsed:        elapsed,
		OptimizerSteps: p.steps,
		EstimatedCost:  p.cost,
		Cache:          cacheStatus,
		PeakMemBytes:   out.PeakMem,
		Spills:         out.Spills,
		Workers:        out.Workers,
		Morsels:        out.Morsels,
		Rules:          p.rules,
	}
	if tracing {
		rows.spans = ctx.Spans(p.plan)
	}
	if analyze {
		rows.Trace = ctx.FormatTrace(p.plan)
	}
	return rows, nil
}

// errClass maps an execution error onto the query-log/metrics taxonomy
// ("" for success).
func errClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrTimeout):
		return obs.ClassTimeout
	case errors.Is(err, ErrCanceled):
		return obs.ClassCanceled
	case errors.Is(err, ErrRowBudget):
		return obs.ClassRowBudget
	case errors.Is(err, ErrMemBudget):
		return obs.ClassMemBudget
	case errors.Is(err, ErrInternal):
		return obs.ClassInternal
	default:
		return obs.ClassOther
	}
}

// noteRun folds one finished execution — success or failure — into the
// engine metrics and, when configured, appends its query-log record.
// Every execution path (Query*, Stmt.Run*, QueryAnalyze, streams at
// Close) funnels through here, which is what keeps DB.Metrics() deltas
// consistent with per-query observations.
func (db *DB) noteRun(p *prepared, cacheStatus string, elapsed time.Duration,
	rows int64, runErr error, peakMem, spills, workers, morsels int64, r runState) {

	logw := r.cfg.QueryLog
	class := errClass(runErr)
	db.metrics.RecordRun(elapsed, rows, class)
	db.metrics.NotePeakMem(peakMem)
	if spills > 0 {
		db.metrics.Spills.Add(uint64(spills))
	}
	if workers > 0 {
		db.metrics.WorkersSpawned.Add(uint64(workers))
	}
	if morsels > 0 {
		db.metrics.MorselsDispatched.Add(uint64(morsels))
	}
	if logw == nil {
		return
	}
	rec := obs.QueryRecord{
		Fingerprint:  p.fingerprint,
		Cache:        cacheStatus,
		Session:      r.cfg.Session,
		QueuedUS:     r.cfg.Queued.Microseconds(),
		Rules:        p.rules,
		DurationUS:   elapsed.Microseconds(),
		Rows:         rows,
		PeakMemBytes: peakMem,
		Spills:       spills,
		Workers:      workers,
		Morsels:      morsels,
		ErrorClass:   class,
	}
	if runErr != nil {
		rec.Error = runErr.Error()
	}
	rec.Now()
	db.logMu.Lock()
	// A failing writer only loses log lines, never the query result.
	_ = rec.Append(logw)
	db.logMu.Unlock()
}

// Stream is an incremental query result: rows are pulled one at a
// time instead of materialized. Close may be called before exhaustion
// — it tears the execution tree down (stopping and draining any
// parallel workers, removing spill files) and is idempotent. A Stream
// must always be Closed.
type Stream struct {
	cu     *exec.Cursor
	cancel context.CancelFunc
	names  []string

	// Result-cache replay: when the stream was served from the result
	// cache, rows come from the pinned entry's materialization (cu is
	// nil) and the entry stays pinned — its bytes accounted — until
	// Close unpins it. Cold streams never populate the cache: they
	// exist for results too large to materialize.
	entry  *resultcache.Entry
	replay []Row
	rpos   int

	// Observability: the stream's query-log record and metrics update
	// are emitted once, at Close, when the row count is known. The
	// logged duration spans open-to-Close, which for a stream includes
	// caller think-time between Next calls.
	db      *DB
	prep    *prepared
	run     runState
	start   time.Time
	nrows   int64
	lastErr error
	noted   bool
}

// QueryStream runs SQL under cfg and returns a streaming result. The
// plan cache is not consulted (streams are for large results, where
// execution dominates compilation).
func (db *DB) QueryStream(sql string, cfg Config) (*Stream, error) {
	return db.QueryStreamSnapshot(nil, sql, cfg, nil)
}

// QueryStreamContext is QueryStream under a caller-supplied context;
// canceling it makes the next Next return an error wrapping
// ErrCanceled.
func (db *DB) QueryStreamContext(goCtx context.Context, sql string, cfg Config) (*Stream, error) {
	return db.QueryStreamSnapshot(goCtx, sql, cfg, nil)
}

// QueryStreamSnapshot is QueryStreamContext reading from a pinned
// snapshot: the stream sees the data exactly as of the snapshot even
// if it is consumed slowly while writers publish new versions. A nil
// snap behaves like QueryStreamContext. The one body behind the three
// QueryStream* entry points.
func (db *DB) QueryStreamSnapshot(goCtx context.Context, sql string, cfg Config, snap *Snapshot) (*Stream, error) {
	r := db.newRun(goCtx, &cfg, snap)
	prep, err := db.prepare(sql, cfg.identity())
	if err != nil {
		return nil, err
	}
	st := &Stream{names: append([]string(nil), prep.outNames...),
		db: db, prep: prep, run: r, start: time.Now()}
	if r.rcache != nil {
		if key, ok := resultKey(prep, nil, r.snap); ok {
			if e, found := r.rcache.Pin(key); found {
				r.rcache.CountHit()
				st.entry, st.replay = e, e.Val.(*Rows).Data
				return st, nil
			}
			r.rcache.CountMiss()
		}
	}
	ectx, cancel := prep.execContext(db, nil, r)
	cu, err := exec.RunCursor(ectx, prep.plan, prep.outCols)
	if err != nil {
		if cancel != nil {
			cancel()
		}
		db.noteRun(prep, "bypass", time.Since(st.start), 0, err,
			ectx.PeakMem(), ectx.Spills(), ectx.WorkersSpawned(), ectx.MorselsDispatched(), r)
		return nil, err
	}
	st.cu, st.cancel = cu, cancel
	return st, nil
}

// Columns returns the result column names.
func (s *Stream) Columns() []string { return s.names }

// Next returns the next row; ok=false at end of stream. After an
// error, Close, or exhaustion it keeps returning ok=false.
func (s *Stream) Next() (Row, bool, error) {
	if s.cu == nil {
		if s.replay == nil || s.rpos >= len(s.replay) {
			return nil, false, nil
		}
		row := s.replay[s.rpos]
		s.rpos++
		s.nrows++
		return row, true, nil
	}
	row, ok, err := s.cu.Next()
	if ok {
		s.nrows++
	}
	if err != nil {
		s.lastErr = err
	}
	return row, ok, err
}

// PeakMemBytes reports the high-water mark of accounted operator
// memory so far (zero for a cache-served stream: nothing executed).
func (s *Stream) PeakMemBytes() int64 {
	if s.cu == nil {
		return 0
	}
	return s.cu.PeakMem()
}

// Spills reports spill partition files written so far.
func (s *Stream) Spills() int64 {
	if s.cu == nil {
		return 0
	}
	return s.cu.Spills()
}

// Close releases all execution resources, then folds the stream into
// the engine metrics and query log (rows actually streamed; a stream
// abandoned mid-result logs what it delivered). Safe to call at any
// point, any number of times.
func (s *Stream) Close() error {
	if s.cu == nil {
		// Cache-served stream: unpin the entry (releasing its accounted
		// bytes if it was evicted or invalidated while we streamed) and
		// log the replay.
		if s.entry != nil {
			s.run.rcache.Unpin(s.entry)
			s.entry, s.replay = nil, nil
		}
		if !s.noted {
			s.noted = true
			s.db.noteRun(s.prep, "result", time.Since(s.start), s.nrows, nil,
				0, 0, 0, 0, s.run)
		}
		return nil
	}
	err := s.cu.Close()
	if s.cancel != nil {
		s.cancel()
		s.cancel = nil
	}
	if !s.noted {
		s.noted = true
		s.db.noteRun(s.prep, "bypass", time.Since(s.start), s.nrows, s.lastErr,
			s.cu.PeakMem(), s.cu.Spills(), s.cu.Workers(), s.cu.Morsels(), s.run)
	}
	return err
}

// QueryAnalyze runs SQL under cfg with per-operator execution
// statistics collected; the result's Trace field holds the annotated
// plan (rows produced, Open counts — correlated execution shows its
// per-row re-opens — and inclusive time per operator).
func (db *DB) QueryAnalyze(sql string, cfg Config) (*Rows, error) {
	prep, err := db.prepare(sql, cfg.identity())
	if err != nil {
		return nil, err
	}
	return prep.execute(db, nil, "bypass", true, runState{cfg: &cfg})
}

// Explain compiles a query under cfg and reports each compilation
// stage: the algebrized tree (§2.1), the normalized/decorrelated tree
// (§2.2–2.3), and the cost-based plan (§3–4). It prints the trail of
// the compile function every query runs through, so the plan it ends on
// is the plan Prepare would return.
func (db *DB) Explain(sql string, cfg Config) (string, error) {
	id := cfg.identity()
	q, err := parser.Parse(sql)
	if err != nil {
		return "", err
	}
	var tr trail
	p, err := db.compile(q, id, nil, &tr)
	if err != nil {
		return "", err
	}
	// Shown for the reader only: normalization introduced the Applies
	// itself.
	applied, err := core.IntroduceApplies(p.md, tr.algebrized)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	_, _, status, _ := db.plan(sql, cfg.PlanCache, id, true)
	fmt.Fprintf(&b, "cache: %s\n", status)
	b.WriteString("=== algebrized (mixed scalar/relational tree) ===\n")
	b.WriteString(algebra.FormatRel(p.md, tr.algebrized))
	b.WriteString("\n=== after Apply introduction (mutual recursion removed) ===\n")
	b.WriteString(algebra.FormatRel(p.md, applied))
	b.WriteString("\n=== normalized (correlations removed, outerjoins simplified) ===\n")
	b.WriteString(algebra.FormatRel(p.md, tr.normalized))
	if r := tr.search; r != nil {
		exhausted := "explored to the end"
		if r.Truncated {
			exhausted = "exploration stopped at the size guard"
		}
		fmt.Fprintf(&b, "\n=== cost-based plan (cost %.0f; memo of %d groups, %d expressions, %d rule firings, %s; %d estimates derived) ===\n",
			r.Cost, r.Groups, r.Explored, r.Generated, exhausted, r.Costed)
		b.WriteString(opt.FormatWithEstimates(p.md, p.est, p.plan, id.parallelism))
	}
	fmt.Fprintf(&b, "\nresult cache: %s\n", db.resultCacheStatus(p, cfg.ResultCache))
	return b.String(), nil
}

// TPCHQuery returns the text of a named TPC-H benchmark query
// (e.g. "Q2", "Q17").
func TPCHQuery(name string) (string, bool) {
	q, ok := tpch.Queries[name]
	return q, ok
}

// TPCHQueryNames lists the available benchmark queries in order.
func TPCHQueryNames() []string {
	return []string{"Q1", "Q2", "Q4", "Q6", "Q11", "Q15", "Q16", "Q17", "Q18", "Q20", "Q21", "Q22"}
}
