package orthoq

// End-to-end property tests for Apply execution: for correlated plans,
// the selector's strategy and forced batched, serially and inside the
// morsel exchange, must return the bag internal/reference gives the
// query, and
// serially the selector's strategy must return forced batched's rows
// in its order — the binding cache replays memoized inner results in
// their original production order and the probe reads a seek's rows in
// its order, so neither may perturb anything observable. The suites
// cover the TPC-H corpus (optimized and pinned-correlated), the random
// subquery corpus, nested Apply parameter shadowing against the cache,
// NULL-vs-absent binding keys, and fault injection mid-batch.

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"orthoq/internal/exec/faultinject"
	"orthoq/internal/sql/types"
)

// applyVariants run every Apply as the selector picks ("auto") and
// forced batched (Config.forceBatched), serially and at four workers,
// where an Apply the exchange can carry runs on each worker.
var applyVariants = func() (vs []engineVariant) {
	for _, par := range []int{1, 4} {
		for _, force := range []bool{false, true} {
			vs = append(vs, engineVariant{applyLabel(force) + "/par" + strconv.Itoa(par),
				func(c *Config) { c.Parallelism, c.forceBatched = par, force }, false})
		}
	}
	return vs
}()

// applyLabel names an Apply path: the selector's, or forced batched.
func applyLabel(forceBatched bool) string {
	if forceBatched {
		return "batched"
	}
	return "auto"
}

// checkApplyStrategies holds sql on db under cfg to the oracle with its
// Applies run every way applyVariants lists, and requires the serial
// selector's run to return forced batched's rows in forced batched's
// order (all strategies execute the same arithmetic per binding).
func checkApplyStrategies(t *testing.T, db *DB, label, sql string, cfg Config) {
	t.Helper()
	newOracle(applyVariants).check(t, db, label, sql, cfg)
	cfg.Parallelism = 1
	auto, err := db.QueryCfg(sql, cfg)
	if err != nil {
		t.Fatalf("%s auto: %v\nsql: %s", label, err, sql)
	}
	cfg.forceBatched = true
	batched, err := db.QueryCfg(sql, cfg)
	if err != nil {
		t.Fatalf("%s batched: %v\nsql: %s", label, err, sql)
	}
	if !exactSameRows(batched.Data, auto.Data) {
		t.Fatalf("%s: auto disagrees with batched\nsql: %s\nbatched:\n%s\nauto:\n%s",
			label, sql, roundedFingerprint(batched), roundedFingerprint(auto))
	}
}

// TestApplyStrategyEquivalenceTPCH sweeps the TPC-H corpus under both
// the fully optimized configuration (whatever Applies the optimizer
// retains) and the zero-value correlated configuration (every subquery
// executes as an Apply).
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
			checkApplyStrategies(t, db, c.name+"/"+name, sql, c.cfg)
		}
	}
}

// TestApplyStrategyEquivalenceFuzz runs the random subquery corpus
// pinned correlated, so every generated subquery shape exercises the
// binding cache — on the reference leg's fuzz data, where the oracle's
// nested iteration stays fast.
func TestApplyStrategyEquivalenceFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	db, err := OpenTPCH(referenceFuzzSF, 11)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(20010521))
	for i := 0; i < 60; i++ {
		checkApplyStrategies(t, db, "fuzz", randQuery(r), Config{})
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
	checkApplyStrategies(t, db, "nested-shadowing", sql, Config{})
	checkApplyStrategies(t, db, "nested-shadowing-opt", sql, DefaultConfig())
}

// TestApplyNullBindingKeys: rows whose correlation column is NULL must
// dedup into one cache entry (NULL keys compare equal, as in GROUP
// BY) and produce the reference's results.
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
		checkApplyStrategies(t, db, "null-keys", sql, Config{})
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
	cfg := Config{forceBatched: true}
	rows, err := db.QueryAnalyze(sql, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rows.Trace, " apply=batched ") {
		t.Fatalf("trace missing apply=batched:\n%s", rows.Trace)
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
// leak no worker goroutines — under the selector's strategy and forced
// batched, at four workers.
func TestApplyFaultInjection(t *testing.T) {
	db := nestedApplyDB(t)
	sql := `select g_id,
	        (select count(i1.i_id) from item i1 where i1.i_grp = g_id
	         and i1.i_val > (select avg(i2.i_val) from item i2
	                         where i2.i_grp = i1.i_grp)) as above_avg
	        from grp`
	base := runtime.NumGoroutine()
	for _, force := range []bool{false, true} {
		strat := applyLabel(force)
		for _, kind := range []faultinject.Kind{faultinject.Error, faultinject.Panic} {
			for _, point := range []string{"open", "next", "close"} {
				cfg := Config{forceBatched: force, Parallelism: 4}
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
				clean, err := db.QueryCfg(sql, Config{forceBatched: force, Parallelism: 4})
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
	applies := explainMatchesTrace(t, "apply=", func(sp *Span) (string, bool) {
		return sp.Strategy, sp.Op == "Apply"
	})
	if applies == 0 {
		t.Fatal("no plan in the corpus ran an Apply")
	}
	t.Logf("%d Applies compared", applies)
}

// explainMatchesTrace runs the TPC-H warm pass and 80 queries of the
// reference fuzz corpus, serial and at four workers, and requires the
// values of the cost-based plan's EXPLAIN annotations key (in plan
// preorder) to equal, in order, ran's values for the spans of a traced
// run that ran reports. It returns how many spans it compared.
func explainMatchesTrace(t *testing.T, key string, ran func(*Span) (string, bool)) int {
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
	compared := 0
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
					if s, ok := strings.CutPrefix(f, key); ok {
						explained = append(explained, strings.TrimSuffix(s, "]"))
					}
				}
				traced := cfg
				traced.Trace = true
				rows, err := c.db.QueryCfg(sql, traced)
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for _, sp := range collectSpans(rows) {
					if v, ok := ran(sp); ok {
						got = append(got, v)
					}
				}
				if !slices.Equal(explained, got) {
					t.Errorf("parallelism %d: EXPLAIN says %s%v, the run used %v\nsql: %s\n%s", par, key, explained, got, sql, out)
				}
				compared += len(got)
			}
		}
	}
	return compared
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
