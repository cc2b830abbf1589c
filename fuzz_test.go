package orthoq

// Randomized end-to-end property test: generate many random subquery
// shapes and verify that the correlated plan, the normalized plan, and
// the fully cost-optimized plan all return identical results. This is
// the broadest check of the Figure-4 identities, the §3 reorderings
// and the executor at once.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"orthoq/internal/sql/ast"
	"orthoq/internal/sql/parser"
)

// randQuery builds a random (but always valid) query over the TPC-H
// customer/orders/lineitem tables with a randomly shaped subquery.
func randQuery(r *rand.Rand) string {
	aggs := []string{"sum(o_totalprice)", "count(*)", "min(o_totalprice)",
		"max(o_totalprice)", "avg(o_totalprice)", "count(o_orderkey)"}
	cmps := []string{"<", "<=", ">", ">=", "=", "<>"}
	threshold := []string{"100", "1000", "50000", "0"}

	innerFilter := ""
	switch r.Intn(3) {
	case 0:
		innerFilter = " and o_totalprice > " + threshold[r.Intn(len(threshold))]
	case 1:
		innerFilter = " and o_orderstatus = 'O'"
	}

	switch r.Intn(9) {
	case 0: // scalar-aggregate subquery in WHERE
		return fmt.Sprintf(`
			select c_custkey from customer
			where %s %s (select %s from orders where o_custkey = c_custkey%s)`,
			threshold[r.Intn(len(threshold))], cmps[r.Intn(len(cmps))],
			aggs[r.Intn(len(aggs))], innerFilter)
	case 1: // scalar-aggregate subquery in SELECT list
		return fmt.Sprintf(`
			select c_custkey,
				(select %s from orders where o_custkey = c_custkey%s) as v
			from customer`,
			aggs[r.Intn(len(aggs))], innerFilter)
	case 2: // EXISTS / NOT EXISTS
		not := ""
		if r.Intn(2) == 0 {
			not = "not "
		}
		return fmt.Sprintf(`
			select c_custkey from customer
			where %sexists (select o_orderkey from orders where o_custkey = c_custkey%s)`,
			not, innerFilter)
	case 3: // IN / NOT IN
		not := ""
		if r.Intn(2) == 0 {
			not = "not "
		}
		return fmt.Sprintf(`
			select c_custkey from customer
			where c_custkey %sin (select o_custkey from orders where 1 = 1%s)`,
			not, innerFilter)
	case 4: // quantified comparison
		q := []string{"any", "all"}[r.Intn(2)]
		return fmt.Sprintf(`
			select c_custkey from customer
			where c_acctbal %s %s (select o_totalprice / 100.0 from orders where o_custkey = c_custkey)`,
			cmps[r.Intn(len(cmps))], q)
	case 5: // nested: aggregate over a semijoin-reduced set
		return fmt.Sprintf(`
			select o_custkey, %s as v from orders
			where exists (select l_orderkey from lineitem where l_orderkey = o_orderkey%s)
			group by o_custkey`,
			aggs[r.Intn(len(aggs))],
			map[bool]string{true: " and l_quantity > 5", false: ""}[r.Intn(2) == 0])
	case 6: // ORDER BY on an indexed unique key (sort-elidable), maybe LIMIT
		dir := []string{"", " desc"}[r.Intn(2)]
		limit := []string{"", " limit 7", " limit 40"}[r.Intn(3)]
		return fmt.Sprintf(`
			select o_orderkey, o_totalprice from orders
			where o_totalprice > %s
			order by o_orderkey%s%s`,
			threshold[r.Intn(len(threshold))], dir, limit)
	case 7: // ORDER BY on a duplicate-heavy, NULL-bearing subquery value.
		// The unique c_custkey tiebreaker makes the total order
		// well-defined, so LIMIT selects the same rows on every plan.
		dir := []string{"", " desc"}[r.Intn(2)]
		limit := []string{"", " limit 11"}[r.Intn(2)]
		return fmt.Sprintf(`
			select c_custkey,
				(select %s from orders where o_custkey = c_custkey%s) as v
			from customer
			order by v%s, c_custkey%s`,
			aggs[r.Intn(len(aggs))], innerFilter, dir, limit)
	default: // GROUP BY on a sorted index prefix (stream-agg-elidable)
		ob := []string{"", " order by l_orderkey", " order by l_orderkey desc"}[r.Intn(3)]
		limit := ""
		if ob != "" && r.Intn(2) == 0 {
			limit = " limit 13"
		}
		return fmt.Sprintf(`
			select l_orderkey, sum(l_quantity) as q, count(*) as n
			from lineitem%s
			group by l_orderkey%s%s`,
			map[bool]string{true: " where l_partkey > 50", false: ""}[r.Intn(2) == 0],
			ob, limit)
	}
}

func roundedFingerprint(rows *Rows) string {
	keys := make([]string, len(rows.Data))
	for i, row := range rows.Data {
		parts := make([]string, len(row))
		for j, v := range row {
			if !v.IsNull() && v.Kind().Numeric() {
				f, _ := v.AsFloat()
				parts[j] = fmt.Sprintf("%.4f", f)
			} else {
				parts[j] = v.String()
			}
		}
		keys[i] = strings.Join(parts, "|")
	}
	// order-insensitive
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	return strings.Join(keys, "\n")
}

func TestRandomQueriesAgreeAcrossStrategies(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	db := sharedDB(t)
	configs := []struct {
		name string
		cfg  Config
	}{
		{"correlated", Config{}},
		{"normalized", Config{Decorrelate: true, SimplifyOuterJoins: true}},
		{"optimized", DefaultConfig()},
	}
	r := rand.New(rand.NewSource(20010521)) // the paper's conference date
	for i := 0; i < 120; i++ {
		sql := randQuery(r)
		var want string
		for _, c := range configs {
			rows, err := db.QueryCfg(sql, c.cfg)
			if err != nil {
				t.Fatalf("query %d under %s failed: %v\nsql: %s", i, c.name, err, sql)
			}
			got := roundedFingerprint(rows)
			if c.name == "correlated" {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("query %d: %s disagrees with correlated\nsql: %s\ncorrelated:\n%s\n%s:\n%s",
					i, c.name, sql, want, c.name, got)
			}
		}
	}
}

// TestFuzzCorpusSearchExhausts: over the random-query corpus the other
// suites draw from, and the TPC-H queries at this scale, the optimizer's
// exploration ends at its fixpoint, never at the memo's size guard
// (internal/opt's TestSearchExhausts holds the pinned searches to the
// same, with the margin).
func TestFuzzCorpusSearchExhausts(t *testing.T) {
	db := sharedDB(t)
	id := DefaultConfig().identity()
	sqls := warmPassQueries()
	for _, seed := range []int64{20010521, 571, 41} {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 120; i++ {
			sqls = append(sqls, randQuery(r))
		}
	}
	largest := 0
	for _, sql := range sqls {
		q, err := parser.Parse(sql)
		if err != nil {
			t.Fatalf("%v\nsql: %s", err, sql)
		}
		var tr trail
		if _, err := db.compile(q, id, nil, &tr); err != nil {
			t.Fatalf("%v\nsql: %s", err, sql)
		}
		if tr.search.Truncated {
			t.Errorf("exploration stopped at the size guard after %d expressions\nsql: %s", tr.search.Explored, sql)
		}
		largest = max(largest, tr.search.Explored)
	}
	t.Logf("%d searches, the largest memo %d expressions", len(sqls), largest)
}

// TestFormattedQueriesExecuteIdentically: rendering a parsed query
// back to SQL and running it must give the original's results.
func TestFormattedQueriesExecuteIdentically(t *testing.T) {
	db := sharedDB(t)
	r := rand.New(rand.NewSource(571)) // the paper's first page number
	cfg := DefaultConfig()
	for i := 0; i < 60; i++ {
		sql := randQuery(r)
		orig, err := db.QueryCfg(sql, cfg)
		if err != nil {
			t.Fatalf("query %d: %v\nsql: %s", i, err, sql)
		}
		q, err := parser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		printed := ast.Format(q)
		again, err := db.QueryCfg(printed, cfg)
		if err != nil {
			t.Fatalf("query %d reprinted failed: %v\nprinted: %s", i, err, printed)
		}
		if roundedFingerprint(orig) != roundedFingerprint(again) {
			t.Fatalf("query %d: formatted query disagrees\nsql: %s\nprinted: %s", i, sql, printed)
		}
	}
}

// FuzzParse drives the lexer and parser with arbitrary bytes, seeded
// from the TPC-H texts and the random corpus: the front door of the
// wire protocol must answer with a query or an error — never a panic
// or a hang — and a query it accepts must print to SQL that parses
// back to the same printed form (format → parse is a fixed point).
func FuzzParse(f *testing.F) {
	for _, name := range TPCHQueryNames() {
		sql, _ := TPCHQuery(name)
		f.Add(sql)
	}
	r := rand.New(rand.NewSource(20010521))
	for i := 0; i < 30; i++ {
		f.Add(randQuery(r))
	}
	for _, s := range []string{"", "select", "select 1 from", "select 'unterminated", "((((((((",
		"select a from t where a in (", "select * from t order by", "select 1e999999 from t", "\x00\xff"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := parser.Parse(sql)
		if err != nil {
			return
		}
		printed := ast.Format(q)
		q2, err := parser.Parse(printed)
		if err != nil {
			t.Fatalf("accepted query prints to SQL that does not parse: %v\ninput:   %q\nprinted: %q", err, sql, printed)
		}
		if again := ast.Format(q2); again != printed {
			t.Fatalf("format → parse → format is not a fixed point\ninput:   %q\nprinted: %q\nagain:   %q", sql, printed, again)
		}
	})
}
