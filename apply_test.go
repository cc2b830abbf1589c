package orthoq

// End-to-end property tests for binding-batch Apply execution: for
// correlated plans, the batched and parallel strategies must return
// exactly the rows of the sequential (row-at-a-time) strategy. Serial
// runs must agree row for row, in order — the binding cache replays
// memoized inner results in their original production order, so
// batching may not perturb anything observable. The suites cover the
// TPC-H corpus (optimized and pinned-correlated), the random subquery
// corpus, nested Apply parameter shadowing against the cache,
// NULL-vs-absent binding keys, and fault injection mid-batch.

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"orthoq/internal/exec/faultinject"
	"orthoq/internal/sql/types"
)

// checkApplyStrategies runs sql with every Apply forced onto each path
// (Config.forceApply; "auto" forces nothing) and compares results
// against the sequential baseline. At Parallelism <= 1 the comparison
// is exact and ordered (all strategies execute the same arithmetic per
// binding); above it rows are matched as a bag with numeric tolerance,
// as in the parallel suites.
func checkApplyStrategies(t *testing.T, db *DB, label, sql string, cfg Config) {
	t.Helper()
	seqCfg := cfg
	seqCfg.forceApply = "sequential"
	seq, err := db.QueryCfg(sql, seqCfg)
	if err != nil {
		t.Fatalf("%s sequential: %v\nsql: %s", label, err, sql)
	}
	for _, strat := range []string{"auto", "batched", "parallel"} {
		c := cfg
		c.forceApply = strat
		rows, err := db.QueryCfg(sql, c)
		if err != nil {
			t.Fatalf("%s %s: %v\nsql: %s", label, strat, err, sql)
		}
		if cfg.Parallelism <= 1 {
			if !exactSameRows(seq.Data, rows.Data) {
				t.Fatalf("%s: %s disagrees with sequential\nsql: %s\nsequential:\n%s\n%s:\n%s",
					label, strat, sql, roundedFingerprint(seq), strat, roundedFingerprint(rows))
			}
		} else if !sameBagTolerant(seq.Data, rows.Data) {
			t.Fatalf("%s: %s par=%d disagrees with sequential\nsql: %s\nsequential:\n%s\n%s:\n%s",
				label, strat, cfg.Parallelism, sql, roundedFingerprint(seq), strat, roundedFingerprint(rows))
		}
	}
}

// TestApplyStrategyEquivalenceTPCH sweeps the TPC-H corpus under both
// the fully optimized configuration (whatever Applies the optimizer
// retains) and the zero-value correlated configuration (every subquery
// executes as an Apply), at Parallelism 1 and 4.
func TestApplyStrategyEquivalenceTPCH(t *testing.T) {
	db := sharedDB(t)
	optimized := DefaultConfig()
	configs := []struct {
		name string
		cfg  Config
	}{
		{"optimized", optimized},
		{"correlated", Config{}},
	}
	for _, c := range configs {
		for _, name := range TPCHQueryNames() {
			sql, ok := TPCHQuery(name)
			if !ok {
				t.Fatalf("missing query %s", name)
			}
			for _, par := range []int{1, 4} {
				cfg := c.cfg
				cfg.Parallelism = par
				checkApplyStrategies(t, db, c.name+"/"+name, sql, cfg)
			}
		}
	}
}

// TestApplyStrategyEquivalenceFuzz runs the random subquery corpus
// pinned correlated, so every generated subquery shape exercises the
// binding cache.
func TestApplyStrategyEquivalenceFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	db := sharedDB(t)
	r := rand.New(rand.NewSource(20010521))
	for i := 0; i < 60; i++ {
		sql := randQuery(r)
		for _, par := range []int{1, 4} {
			cfg := Config{Parallelism: par}
			checkApplyStrategies(t, db, "fuzz", sql, cfg)
		}
	}
}

// nestedApplyDB builds a three-level schema where inner and outer
// correlated subqueries bind columns of the *same* table (overlapping
// ColIDs across Apply scopes): the binding cache of the inner Apply
// must key on its own scope's values even while an enclosing Apply has
// the same columns bound to different values.
func nestedApplyDB(t *testing.T) *DB {
	t.Helper()
	db := NewMemory()
	if err := db.CreateTable(&Table{
		Name: "grp",
		Columns: []Column{
			{Name: "g_id", Type: types.Int},
			{Name: "g_lim", Type: types.Int},
		},
		Key: []int{0},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(&Table{
		Name: "item",
		Columns: []Column{
			{Name: "i_id", Type: types.Int},
			{Name: "i_grp", Type: types.Int},
			{Name: "i_val", Type: types.Int},
		},
		Key:     []int{0},
		Indexes: []Index{{Name: "item_grp", Cols: []int{1}}},
	}); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 8; g++ {
		if err := db.Insert("grp", Row{types.NewInt(int64(g)), types.NewInt(int64(g * 3))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 160; i++ {
		if err := db.Insert("item", Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 8)),
			types.NewInt(int64(i % 13)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestApplyNestedShadowing: a correlated subquery nested inside
// another correlated subquery over the same table. Both scopes bind
// item columns; the batched inner Apply memoizes per its own binding
// while the outer Apply's parameters shadow and unshadow around it.
func TestApplyNestedShadowing(t *testing.T) {
	db := nestedApplyDB(t)
	// For each group: count the items whose value exceeds the average
	// value of their own group's items — the inner avg() is correlated
	// on the mid-level item row, which is itself correlated on grp.
	sql := `
select g_id,
       (select count(i1.i_id) from item i1
        where i1.i_grp = g_id
          and i1.i_val > (select avg(i2.i_val) from item i2
                          where i2.i_grp = i1.i_grp)) as above_avg
from grp`
	for _, par := range []int{1, 4} {
		checkApplyStrategies(t, db, "nested-shadowing", sql, Config{Parallelism: par})
		checkApplyStrategies(t, db, "nested-shadowing-opt", sql, func() Config {
			c := DefaultConfig()
			c.Parallelism = par
			return c
		}())
	}
}

// TestApplyNullBindingKeys: rows whose correlation column is NULL must
// dedup into one cache entry (NULL keys compare equal, as in GROUP
// BY) and produce the same results as sequential re-execution.
func TestApplyNullBindingKeys(t *testing.T) {
	db := NewMemory()
	if err := db.CreateTable(&Table{
		Name: "probe",
		Columns: []Column{
			{Name: "p_id", Type: types.Int},
			{Name: "p_key", Type: types.Int, Nullable: true},
		},
		Key: []int{0},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(&Table{
		Name: "dim",
		Columns: []Column{
			{Name: "d_key", Type: types.Int},
			{Name: "d_val", Type: types.Int},
		},
		Key: []int{0},
	}); err != nil {
		t.Fatal(err)
	}
	null := types.Null(types.Int)
	for i := 0; i < 40; i++ {
		key := types.NewInt(int64(i % 3))
		if i%4 == 0 {
			key = null // every fourth probe row has a NULL binding
		}
		if err := db.Insert("probe", Row{types.NewInt(int64(i)), key}); err != nil {
			t.Fatal(err)
		}
	}
	for d := 0; d < 3; d++ {
		if err := db.Insert("dim", Row{types.NewInt(int64(d)), types.NewInt(int64(d * 10))}); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{
		// Scalar lookup: NULL key matches nothing, yields NULL.
		`select p_id, (select d_val from dim where d_key = p_key) as v from probe`,
		// Exists: NULL key is an empty inner, anti-join emits the row.
		`select p_id from probe where not exists
		   (select d_key from dim where d_key = p_key)`,
	}
	for _, sql := range queries {
		for _, par := range []int{1, 4} {
			checkApplyStrategies(t, db, "null-keys", sql, Config{Parallelism: par})
		}
	}
}

// TestApplyAnalyzeTrace: EXPLAIN ANALYZE surfaces the chosen strategy
// and the binding/inner-execution counters on Apply operators, and the
// batched counters show actual deduplication on a repetitive binding.
func TestApplyAnalyzeTrace(t *testing.T) {
	db := sharedDB(t)
	sql := `select o_orderkey from orders
	        where o_totalprice > (select avg(o2.o_totalprice) from orders o2
	                              where o2.o_custkey = orders.o_custkey)`
	cfg := Config{forceApply: "batched"}
	rows, err := db.QueryAnalyze(sql, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rows.Trace, "strategy=batched") {
		t.Fatalf("trace missing strategy=batched:\n%s", rows.Trace)
	}
	if !strings.Contains(rows.Trace, "bindings=") || !strings.Contains(rows.Trace, "inner-execs=") {
		t.Fatalf("trace missing binding counters:\n%s", rows.Trace)
	}
	var bindings, execs int64
	for _, sp := range collectSpans(rows) {
		bindings += sp.Bindings
		execs += sp.InnerExecs
	}
	if bindings == 0 || execs == 0 {
		t.Fatalf("span counters empty: bindings=%d inner-execs=%d", bindings, execs)
	}
	if execs >= bindings {
		t.Fatalf("no deduplication: %d inner execs for %d bindings", execs, bindings)
	}
}

// TestApplyFaultInjection: errors and panics raised by the inner side
// mid-batch must surface as ordinary query errors, leave no stale
// correlation parameters (the next query on the same DB works), and
// leak no worker goroutines — under both batched and parallel
// strategies.
func TestApplyFaultInjection(t *testing.T) {
	db := nestedApplyDB(t)
	sql := `select g_id,
	        (select count(i1.i_id) from item i1 where i1.i_grp = g_id
	         and i1.i_val > (select avg(i2.i_val) from item i2
	                         where i2.i_grp = i1.i_grp)) as above_avg
	        from grp`
	base := runtime.NumGoroutine()
	for _, strat := range []string{"batched", "parallel"} {
		for _, kind := range []faultinject.Kind{faultinject.Error, faultinject.Panic} {
			for _, point := range []string{"open", "next", "close"} {
				cfg := Config{forceApply: strat, Parallelism: 4}
				cfg.faults = faultinject.New(
					faultinject.Rule{Op: "Get", Point: point, Kind: kind, After: 5})
				_, err := db.QueryCfg(sql, cfg)
				if err == nil {
					t.Fatalf("%s/%v/%s: fault did not surface", strat, kind, point)
				}
				if kind == faultinject.Panic && !errors.Is(err, ErrInternal) {
					t.Fatalf("%s/%s: panic not contained as ErrInternal: %v", strat, point, err)
				}
				// The DB must stay usable: no stale params, no poisoned
				// shared state.
				clean, err := db.QueryCfg(sql, Config{forceApply: strat, Parallelism: 4})
				if err != nil {
					t.Fatalf("%s/%v/%s: query after fault failed: %v", strat, kind, point, err)
				}
				if len(clean.Data) != 8 {
					t.Fatalf("%s/%v/%s: post-fault query returned %d rows, want 8",
						strat, kind, point, len(clean.Data))
				}
			}
		}
	}
	waitGoroutines(t, base)
}

// TestExplainApplyMatchesExecution: EXPLAIN's apply= is the strategy
// the Apply runs under. Over the TPC-H set (the warm pass, with the
// paper's three Q1 spellings) and the reference fuzz corpus, serial and
// at four workers, the i-th apply= of the cost-based plan must name the
// strategy of the i-th Apply span of a traced run, both in plan
// preorder.
func TestExplainApplyMatchesExecution(t *testing.T) {
	fuzzDB, err := OpenTPCH(referenceFuzzSF, 11)
	if err != nil {
		t.Fatal(err)
	}
	type corpus struct {
		db  *DB
		sql []string
	}
	corpora := []corpus{{sharedDB(t), warmPassQueries()}, {fuzzDB, nil}}
	r := rand.New(rand.NewSource(20010521))
	for i := 0; i < 80; i++ {
		corpora[1].sql = append(corpora[1].sql, randQuery(r))
	}
	applies := 0
	for _, par := range []int{0, 4} {
		cfg := DefaultConfig()
		cfg.Parallelism = par
		for _, c := range corpora {
			for _, sql := range c.sql {
				out, err := c.db.Explain(sql, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var explained []string
				for _, f := range strings.Fields(out[strings.Index(out, "=== cost-based plan"):]) {
					if s, ok := strings.CutPrefix(f, "apply="); ok {
						explained = append(explained, strings.TrimSuffix(s, "]"))
					}
				}
				traced := cfg
				traced.Trace = true
				rows, err := c.db.QueryCfg(sql, traced)
				if err != nil {
					t.Fatal(err)
				}
				var ran []string
				for _, sp := range collectSpans(rows) {
					if sp.Op == "Apply" {
						ran = append(ran, sp.Strategy)
					}
				}
				if !slices.Equal(explained, ran) {
					t.Errorf("parallelism %d: EXPLAIN says apply=%v, the run used %v\nsql: %s\n%s", par, explained, ran, sql, out)
				}
				applies += len(ran)
			}
		}
	}
	if applies == 0 {
		t.Fatal("no plan in the corpus ran an Apply")
	}
	t.Logf("%d Applies compared", applies)
}

// collectSpans flattens a traced result's span tree.
func collectSpans(rows *Rows) []*Span {
	var out []*Span
	if sp := rows.Spans(); sp != nil {
		sp.Walk(func(s *Span) { out = append(out, s) })
	}
	return out
}

// exactSameRows requires identical rows in identical order.
func exactSameRows(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j].IsNull() != b[i][j].IsNull() || a[i][j].String() != b[i][j].String() {
				return false
			}
		}
	}
	return true
}
