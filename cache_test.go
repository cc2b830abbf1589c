package orthoq

// Plan-cache integration tests: hit/miss/bypass behavior, cached-vs-
// uncached result equivalence (TPC-H and fuzz corpus, serial and
// parallel), epoch invalidation (Analyze, DDL, insert drift) including
// the stats-crossover plan flip, and concurrent use.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"orthoq/internal/exec/faultinject"
	"orthoq/internal/opt"
	"orthoq/internal/sql/types"
)

func uncachedCfg() Config {
	cfg := DefaultConfig()
	cfg.PlanCache.Disabled = true
	return cfg
}

// TestCacheHitSameShapeDifferentLiterals is the headline behavior: a
// repeated query differing only in literal values reuses the optimized
// plan and still computes the right answer for the *new* literals.
func TestCacheHitSameShapeDifferentLiterals(t *testing.T) {
	db := sharedDB(t)
	tmpl := "select c_custkey, c_name from customer where c_custkey <= %d and c_name like '%s'"

	r1, err := db.Query(fmt.Sprintf(tmpl, 10, "Customer%"))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cache != "hit" && r1.Cache != "miss" {
		t.Fatalf("first run cache = %q", r1.Cache)
	}

	r2, err := db.Query(fmt.Sprintf(tmpl, 25, "Customer%"))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cache != "hit" {
		t.Fatalf("second run cache = %q, want hit", r2.Cache)
	}
	// The re-bound literals must govern the result.
	want, err := db.QueryCfg(fmt.Sprintf(tmpl, 25, "Customer%"), uncachedCfg())
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := roundedFingerprint(r2), roundedFingerprint(want); got != exp {
		t.Fatalf("cached result differs from uncached:\n%s\nvs\n%s", got, exp)
	}
	if len(r2.Data) <= len(r1.Data) {
		t.Fatalf("widened predicate returned %d rows vs %d — literal not re-bound",
			len(r2.Data), len(r1.Data))
	}
}

// TestCacheEquivalenceTPCH runs the full benchmark set cached and
// uncached, serial and parallel, and demands identical results.
func TestCacheEquivalenceTPCH(t *testing.T) {
	db := sharedDB(t)
	for _, par := range []int{1, 4} {
		for _, name := range TPCHQueryNames() {
			q, ok := TPCHQuery(name)
			if !ok {
				t.Fatalf("no query %s", name)
			}
			cfg := DefaultConfig()
			cfg.Parallelism = par
			want, err := db.QueryCfg(q, uncachedCfg())
			if err != nil {
				t.Fatalf("%s uncached: %v", name, err)
			}
			// Twice: the second run exercises the warm path (hit, or
			// bypass for uncacheable shapes — never a wrong answer).
			for i := 0; i < 2; i++ {
				got, err := db.QueryCfg(q, cfg)
				if err != nil {
					t.Fatalf("%s cached (par %d, run %d): %v", name, par, i, err)
				}
				if roundedFingerprint(got) != roundedFingerprint(want) {
					t.Fatalf("%s: cached result differs (par %d, run %d, cache %s)",
						name, par, i, got.Cache)
				}
			}
		}
	}
}

// TestCacheEquivalenceFuzz replays a fuzz corpus cached vs uncached.
func TestCacheEquivalenceFuzz(t *testing.T) {
	db := sharedDB(t)
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 60; i++ {
		q := randQuery(r)
		want, err := db.QueryCfg(q, uncachedCfg())
		if err != nil {
			t.Fatalf("query %d uncached: %v\n%s", i, err, q)
		}
		for run := 0; run < 2; run++ {
			got, err := db.Query(q)
			if err != nil {
				t.Fatalf("query %d cached run %d: %v\n%s", i, run, err, q)
			}
			if roundedFingerprint(got) != roundedFingerprint(want) {
				t.Fatalf("query %d: cached result differs (run %d, cache %s)\n%s",
					i, run, got.Cache, q)
			}
		}
	}
}

// crossoverDB builds dim table d (4 rows) and fact table f (5000 rows,
// secondary index on fk) — the regime where correlated index-lookup
// execution of an EXISTS wins.
func crossoverDB(t *testing.T) *DB {
	t.Helper()
	db := NewMemory()
	if err := db.CreateTable(&Table{
		Name:    "d",
		Columns: []Column{{Name: "id", Type: types.Int}},
		Key:     []int{0},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(&Table{
		Name: "f",
		Columns: []Column{
			{Name: "fk", Type: types.Int},
			{Name: "v", Type: types.Int},
		},
		Key:     []int{1},
		Indexes: []Index{{Name: "f_fk", Cols: []int{0}, Ordered: true}},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := db.Insert("d", Row{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	frows := make([]Row, 5000)
	for i := range frows {
		frows[i] = Row{types.NewInt(int64(i % 100)), types.NewInt(int64(i))}
	}
	if err := db.Insert("f", frows...); err != nil {
		t.Fatal(err)
	}
	db.Analyze()
	return db
}

// TestCacheAnalyzeCrossoverInvalidation is the acceptance scenario: a
// cached correlated (Apply) plan chosen for a tiny outer table must be
// re-optimized — not served stale — once the table grows past the
// crossover and Analyze refreshes statistics.
func TestCacheAnalyzeCrossoverInvalidation(t *testing.T) {
	db := crossoverDB(t)
	const q = "select count(*) from d where exists (select 1 from f where f.fk = d.id)"

	r1, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cache != "miss" {
		t.Fatalf("cold run cache = %q", r1.Cache)
	}
	if !strings.Contains(r1.Plan, "ApplySemi") {
		t.Fatalf("tiny-outer plan should use correlated execution:\n%s", r1.Plan)
	}
	r2, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cache != "hit" {
		t.Fatalf("warm run cache = %q, want hit", r2.Cache)
	}

	// Grow d three orders of magnitude and refresh statistics.
	drows := make([]Row, 20000)
	for i := range drows {
		drows[i] = Row{types.NewInt(int64(100 + i))}
	}
	if err := db.Insert("d", drows...); err != nil {
		t.Fatal(err)
	}
	db.Analyze()

	r3, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cache != "miss" {
		t.Fatalf("post-Analyze run cache = %q, want miss (stale plan must not be served)", r3.Cache)
	}
	if strings.Contains(r3.Plan, "ApplySemi") {
		t.Fatalf("plan not re-optimized after stats crossover:\n%s", r3.Plan)
	}
	if st := db.CacheStats(); st.Invalidations < 1 {
		t.Fatalf("invalidations = %d, want >= 1", st.Invalidations)
	}
	// New d rows have ids 100..20099; f.fk only spans 0..99, so the
	// count is unchanged — and must match the old plan's answer.
	if got := r3.Data[0][0].Int(); got != 4 || r1.Data[0][0].Int() != 4 {
		t.Fatalf("count = %d (before: %v), want 4", got, r1.Data[0][0])
	}
}

// TestCacheCreateTableInvalidation: DDL bumps the epoch.
func TestCacheCreateTableInvalidation(t *testing.T) {
	db := crossoverDB(t)
	const q = "select count(*) from f where v < 10"
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	r, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cache != "hit" {
		t.Fatalf("warm run cache = %q", r.Cache)
	}
	if err := db.CreateTable(&Table{
		Name:    "extra",
		Columns: []Column{{Name: "x", Type: types.Int}},
		Key:     []int{0},
	}); err != nil {
		t.Fatal(err)
	}
	r, err = db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cache != "miss" {
		t.Fatalf("post-DDL run cache = %q, want miss", r.Cache)
	}
	if st := db.CacheStats(); st.Invalidations < 1 {
		t.Fatalf("invalidations = %d", st.Invalidations)
	}
}

// TestCacheInsertDriftInvalidation: enough un-analyzed inserts bump the
// epoch on their own.
func TestCacheInsertDriftInvalidation(t *testing.T) {
	db := NewMemory()
	if err := db.CreateTable(&Table{
		Name:    "t",
		Columns: []Column{{Name: "x", Type: types.Int}},
		Key:     []int{0},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := db.Insert("t", Row{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	db.Analyze()
	const q = "select count(*) from t where x >= 0"
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	r, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cache != "hit" {
		t.Fatalf("warm run cache = %q", r.Cache)
	}
	// The drift threshold is max(64, rows/8); 64 fresh rows cross it.
	rows := make([]Row, 64)
	for i := range rows {
		rows[i] = Row{types.NewInt(int64(1000 + i))}
	}
	if err := db.Insert("t", rows...); err != nil {
		t.Fatal(err)
	}
	r, err = db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cache != "miss" {
		t.Fatalf("post-drift run cache = %q, want miss", r.Cache)
	}
	if got := r.Data[0][0].Int(); got != 74 {
		t.Fatalf("count = %d, want 74", got)
	}
}

// TestCacheUncacheableShapeBypasses: a literal inside a grouping
// expression makes the shape uncacheable; later runs report bypass and
// still compute correct results.
func TestCacheUncacheableShapeBypasses(t *testing.T) {
	db := sharedDB(t)
	const q = "select count(*) from orders group by o_orderkey % 7"
	r1, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cache != "miss" {
		t.Fatalf("first run cache = %q", r1.Cache)
	}
	r2, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cache != "bypass" {
		t.Fatalf("second run cache = %q, want bypass", r2.Cache)
	}
	if roundedFingerprint(r1) != roundedFingerprint(r2) {
		t.Fatal("bypass run differs from first run")
	}
}

// TestCacheDisabledBypasses: PlanCache.Disabled short-circuits and is
// counted.
func TestCacheDisabledBypasses(t *testing.T) {
	db := crossoverDB(t)
	before := db.CacheStats().Bypasses
	r, err := db.QueryCfg("select count(*) from f", uncachedCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.Cache != "bypass" {
		t.Fatalf("cache = %q, want bypass", r.Cache)
	}
	if after := db.CacheStats().Bypasses; after != before+1 {
		t.Fatalf("bypasses = %d, want %d", after, before+1)
	}
}

// TestCacheEviction: a tiny cache under many distinct shapes evicts.
func TestCacheEviction(t *testing.T) {
	db := crossoverDB(t)
	cfg := DefaultConfig()
	cfg.PlanCache.Size = 2
	for i := 0; i < 12; i++ {
		// Distinct column lists give distinct shapes (literals alone
		// would collapse into one family).
		q := fmt.Sprintf("select count(*) from f where v >= %d and fk >= %d", i, i%3)
		if i%2 == 0 {
			q = fmt.Sprintf("select count(*), min(v) from f where v >= %d group by fk having count(*) > %d", i, i)
		}
		if _, err := db.QueryCfg(q, cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := db.QueryCfg(fmt.Sprintf("select max(v) from f where fk = %d and v < %d", i, i+i), cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := db.QueryCfg(fmt.Sprintf("select fk from f where v = %d order by fk limit %d", i, i+1), cfg); err != nil {
			t.Fatal(err)
		}
	}
	st := db.CacheStats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions with Size=2: %+v", st)
	}
}

// TestExplainCacheLine: EXPLAIN reports how the cache would serve the
// query without perturbing it.
func TestExplainCacheLine(t *testing.T) {
	db := crossoverDB(t)
	const q = "select count(*) from f where v < 100"
	out, err := db.Explain(q, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "cache: miss\n") {
		t.Fatalf("cold explain header:\n%s", out[:40])
	}
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	out, err = db.Explain(q, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "cache: hit\n") {
		t.Fatalf("warm explain header:\n%s", out[:40])
	}
	// Same shape, different literal: still a hit (that is the point).
	// 150 sits in the same selectivity bucket as 100; a wildly
	// different literal (say v < 4900) would re-optimize by design.
	out, err = db.Explain("select count(*) from f where v < 150", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "cache: hit\n") {
		t.Fatalf("different-literal explain header:\n%s", out[:40])
	}
	// Uncacheable shape: bypass.
	if _, err := db.Query("select count(*) from f group by v % 5"); err != nil {
		t.Fatal(err)
	}
	out, err = db.Explain("select count(*) from f group by v % 5", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "cache: bypass\n") {
		t.Fatalf("uncacheable explain header:\n%s", out[:40])
	}
}

// TestCacheSelectivityBuckets: the parameter-sniffing escape hatch. A
// literal that lands in a different selectivity bucket re-optimizes
// (the plan choice may legitimately differ) instead of blindly reusing
// the plan sniffed for another regime; each bucket then caches its own
// plan.
func TestCacheSelectivityBuckets(t *testing.T) {
	db := crossoverDB(t)
	run := func(lit int, wantCache string) *Rows {
		t.Helper()
		r, err := db.Query(fmt.Sprintf("select count(*) from f where v < %d", lit))
		if err != nil {
			t.Fatal(err)
		}
		if r.Cache != wantCache {
			t.Fatalf("v < %d: cache = %q, want %q", lit, r.Cache, wantCache)
		}
		if got := r.Data[0][0].Int(); got != int64(lit) {
			t.Fatalf("v < %d: count = %d", lit, got)
		}
		return r
	}
	run(100, "miss")  // ~2% selective: cold compile
	run(120, "hit")   // same bucket: reuse
	run(4900, "miss") // ~98% selective: different bucket, own compile
	run(4900, "hit")  // that bucket is now warm too
	run(110, "hit")   // the low bucket is still cached
}

// TestCacheAggregateThresholdBuckets: a threshold on an aggregate is
// estimated from the aggregated column, so the plan may depend on it,
// and is bucketed like a range predicate on the column itself: a
// threshold few groups can reach compiles its own plan, and one near it
// reuses that.
func TestCacheAggregateThresholdBuckets(t *testing.T) {
	db, err := OpenTPCH(0.002, 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(threshold int, wantCache string) {
		t.Helper()
		r, err := db.Query(fmt.Sprintf(`select o_orderkey from orders where o_orderkey in
			(select l_orderkey from lineitem group by l_orderkey having sum(l_quantity) > %d)`, threshold))
		if err != nil {
			t.Fatal(err)
		}
		if r.Cache != wantCache {
			t.Fatalf("sum(l_quantity) > %d: cache = %q, want %q", threshold, r.Cache, wantCache)
		}
	}
	run(10, "miss")  // nearly every order
	run(12, "hit")   // the same regime
	run(250, "miss") // a handful of orders: another regime, own compile
	run(260, "hit")
	run(11, "hit")
}

// TestStmtConcurrentRuns: one prepared statement, many goroutines.
// Run with -race (scripts/check.sh does).
func TestStmtConcurrentRuns(t *testing.T) {
	db := sharedDB(t)
	q, _ := TPCHQuery("Q4")
	stmt, err := db.Prepare(q, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := stmt.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantFP := roundedFingerprint(want)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				r, err := stmt.Run()
				if err != nil {
					errs <- err
					return
				}
				if roundedFingerprint(r) != wantFP {
					errs <- fmt.Errorf("concurrent run diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestQueryConcurrentCacheUse: concurrent Query calls share one cache;
// mixed shapes and literals, with an Analyze thrown in mid-flight.
func TestQueryConcurrentCacheUse(t *testing.T) {
	db := crossoverDB(t)
	var wg sync.WaitGroup
	errs := make(chan error, 9)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := fmt.Sprintf("select count(*) from f where v < %d", (g+1)*(i+1))
				r, err := db.Query(q)
				if err != nil {
					errs <- err
					return
				}
				if want := int64((g + 1) * (i + 1)); r.Data[0][0].Int() != want {
					errs <- fmt.Errorf("count(v < %d) = %v", want, r.Data[0][0])
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		db.Analyze()
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStmtStale: the staleness flag flips on epoch changes; running a
// stale statement still answers over current data.
func TestStmtStale(t *testing.T) {
	db := crossoverDB(t)
	stmt, err := db.Prepare("select count(*) from f where v >= 0", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Stale() {
		t.Fatal("fresh statement reported stale")
	}
	db.Analyze()
	if !stmt.Stale() {
		t.Fatal("statement not stale after Analyze")
	}
	r, err := stmt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Data[0][0].Int(); got != 5000 {
		t.Fatalf("stale run count = %d, want 5000", got)
	}
}

// TestCacheStatsCounters sanity-checks the counter wiring end to end.
func TestCacheStatsCounters(t *testing.T) {
	db := crossoverDB(t)
	const q = "select count(*) from f where v < 10"
	for i := 0; i < 3; i++ {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	st := db.CacheStats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 1 miss + 2 hits", st)
	}
	if st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("stats = %+v, want 1 entry with bytes", st)
	}
}

// TestCacheSurvivesFailedRuns: governance aborts — cancellation, a
// hard memory cap, even a contained operator panic — happen at run
// time against a shared cached plan. None of them may corrupt or evict
// the entry: the next clean run must still be a hit with correct rows.
func TestCacheSurvivesFailedRuns(t *testing.T) {
	db := sharedDB(t)
	const sql = "select o_custkey, count(*) from orders group by o_custkey"
	cfg := DefaultConfig()

	warm, err := db.QueryCfg(sql, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantFP := roundedFingerprint(warm)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryCfgContext(ctx, sql, cfg); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled run: want ErrCanceled, got %v", err)
	}

	mcfg := cfg
	mcfg.MemBudget = 1 << 10
	mcfg.DisableSpill = true
	if _, err := db.QueryCfg(sql, mcfg); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("hard-capped run: want ErrMemBudget, got %v", err)
	}

	fcfg := cfg
	fcfg.faults = faultinject.New(faultinject.Rule{Point: "next", Kind: faultinject.Panic})
	if _, err := db.QueryCfg(sql, fcfg); !errors.Is(err, ErrInternal) {
		t.Fatalf("panicking run: want ErrInternal, got %v", err)
	}

	r, err := db.QueryCfg(sql, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cache != "hit" {
		t.Fatalf("clean run after failures: cache = %q, want hit", r.Cache)
	}
	if roundedFingerprint(r) != wantFP {
		t.Fatal("cached plan returns different rows after failed runs")
	}
}

// TestStmtReusableAfterFailure: a prepared statement survives failed
// runs — the compiled plan is read-only at run time, so a canceled or
// panicked execution leaves the Stmt fully usable.
func TestStmtReusableAfterFailure(t *testing.T) {
	db := sharedDB(t)
	q, _ := TPCHQuery("Q4")
	want, err := db.QueryCfg(q, uncachedCfg())
	if err != nil {
		t.Fatal(err)
	}

	// Contained panic on the first run; the injector's rule fires once,
	// so the second run is clean.
	cfg := DefaultConfig()
	cfg.faults = faultinject.New(faultinject.Rule{Point: "next", Kind: faultinject.Panic, After: 5})
	stmt, err := db.Prepare(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Run(); !errors.Is(err, ErrInternal) {
		t.Fatalf("first run: want ErrInternal, got %v", err)
	}
	r, err := stmt.Run()
	if err != nil {
		t.Fatalf("statement unusable after contained panic: %v", err)
	}
	if !sameBagTolerant(want.Data, r.Data) {
		t.Fatal("post-panic run returned wrong rows")
	}

	// Cancellation, then a clean context.
	stmt2, err := db.Prepare(q, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := stmt2.RunContext(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled RunContext: want ErrCanceled, got %v", err)
	}
	r, err = stmt2.RunContext(context.Background())
	if err != nil {
		t.Fatalf("statement unusable after cancellation: %v", err)
	}
	if !sameBagTolerant(want.Data, r.Data) {
		t.Fatal("post-cancel run returned wrong rows")
	}

	// A spilling run and an unbounded run of the same Stmt-shaped plan
	// agree (budget is run state, not plan identity).
	scfg := DefaultConfig()
	scfg.MemBudget = 16 << 10
	scfg.SpillDir = t.TempDir()
	stmt3, err := db.Prepare(q, scfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err = stmt3.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !sameBagTolerant(want.Data, r.Data) {
		t.Fatal("budgeted prepared run returned wrong rows")
	}
}

// TestCacheOrderStrategySeparation: the order rules are plan identity —
// the same SQL with them on and off (DisableRules = opt.FamilyOrder)
// occupies distinct cache slots, each with its own hit stream.
func TestCacheOrderStrategySeparation(t *testing.T) {
	db, err := OpenTPCH(0.001, 13)
	if err != nil {
		t.Fatal(err)
	}
	const q = `select o_orderkey, l_linenumber from orders join lineitem on l_orderkey = o_orderkey
	           order by o_orderkey, l_linenumber`
	base := DefaultConfig()
	noOrder := base
	noOrder.DisableRules = opt.FamilyOrder
	for _, cfg := range []Config{base, noOrder} {
		r, err := db.QueryCfg(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cache != "miss" {
			t.Fatalf("first run under %q cache = %q, want miss (plan aliased across order rules)",
				cfg.identity().key(), r.Cache)
		}
	}
	for _, cfg := range []Config{base, noOrder} {
		r, err := db.QueryCfg(q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cache != "hit" {
			t.Fatalf("second run under %q cache = %q, want hit", cfg.identity().key(), r.Cache)
		}
	}
}

// TestCacheStaleOrderedIndexStillSorted: a cached sort-elided plan runs
// against a table whose ordered index is stale (rows inserted, no
// Analyze). The executor must detect the staleness and fall back to an
// explicit sort, so the result — including the fresh rows — is still
// in ORDER BY order.
func TestCacheStaleOrderedIndexStillSorted(t *testing.T) {
	db, err := OpenTPCH(0.001, 5)
	if err != nil {
		t.Fatal(err)
	}
	const q = `select o_orderkey from orders order by o_orderkey desc`
	r, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(r.Plan, "Sort") {
		t.Fatalf("expected sort-elided plan:\n%s", r.Plan)
	}
	before := len(r.Data)

	// A key far above the generated range, inserted without Analyze:
	// the ordered index no longer covers the table version.
	fresh := Row{types.NewInt(9_999_999), types.NewInt(1), types.NewString("O"),
		types.NewFloat(1.0), types.NewDate(9500), types.NewString("1-URGENT"),
		types.NewString("clerk"), types.NewInt(0), types.NewString("late row")}
	if err := db.Insert("orders", fresh); err != nil {
		t.Fatal(err)
	}
	r2, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cache != "hit" {
		t.Fatalf("post-insert run cache = %q, want hit (one row is below the drift threshold)", r2.Cache)
	}
	if len(r2.Data) != before+1 {
		t.Fatalf("rows = %d, want %d", len(r2.Data), before+1)
	}
	if got := r2.Data[0][0].Int(); got != 9_999_999 {
		t.Fatalf("first row (desc) = %d, want the fresh max key (stale ordered scan not detected?)", got)
	}
	for i := 1; i < len(r2.Data); i++ {
		if r2.Data[i-1][0].Int() < r2.Data[i][0].Int() {
			t.Fatalf("row %d out of order: %d < %d", i, r2.Data[i-1][0].Int(), r2.Data[i][0].Int())
		}
	}
}
