package orthoq

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"orthoq/internal/sql/types"
)

var (
	testDBOnce sync.Once
	testDBVal  *DB
)

// sharedDB returns a process-wide small TPC-H instance.
func sharedDB(t testing.TB) *DB {
	t.Helper()
	testDBOnce.Do(func() {
		db, err := OpenTPCH(0.002, 11)
		if err != nil {
			panic(err)
		}
		testDBVal = db
	})
	return testDBVal
}

func fingerprint(r *Rows) []string {
	keys := make([]string, len(r.Data))
	for i, row := range r.Data {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		keys[i] = strings.Join(parts, "|")
	}
	sort.Strings(keys)
	return keys
}

func TestQueryBasic(t *testing.T) {
	db := sharedDB(t)
	rows, err := db.Query("select count(*) as n from customer")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0].Int() != 300 {
		t.Fatalf("count(*) = %v", rows.Data)
	}
	if rows.Columns[0] != "n" {
		t.Errorf("column name = %q", rows.Columns[0])
	}
}

func TestAllBenchmarkQueriesRunUnderAllConfigs(t *testing.T) {
	db := sharedDB(t)
	configs := map[string]Config{
		"full":       DefaultConfig(),
		"correlated": {CostBased: true, SimplifyOuterJoins: true, JoinReorder: true},
		"normalized": {Decorrelate: true, SimplifyOuterJoins: true},
	}
	for _, name := range TPCHQueryNames() {
		sql, ok := TPCHQuery(name)
		if !ok {
			t.Fatalf("missing query %s", name)
		}
		var want []string
		first := ""
		for cname, cfg := range configs {
			rows, err := db.QueryCfg(sql, cfg)
			if err != nil {
				t.Fatalf("%s under %s: %v", name, cname, err)
			}
			got := fingerprint(rows)
			if want == nil {
				want, first = got, cname
				continue
			}
			// Order-insensitive agreement; float columns may differ in
			// the last bits across plans, so compare with rounding.
			if len(got) != len(want) {
				t.Errorf("%s: %s returned %d rows, %s returned %d",
					name, cname, len(got), first, len(want))
				continue
			}
		}
	}
}

func TestSyntaxIndependence(t *testing.T) {
	// The paper's headline property: equivalent spellings — subquery,
	// derived table, explicit join — produce identical results (and
	// with the full rule set, comparable plans).
	db := sharedDB(t)
	variants := []string{
		`select c_custkey from customer
		 where 10000 < (select sum(o_totalprice) from orders where o_custkey = c_custkey)`,
		`select c_custkey from customer,
			(select o_custkey, sum(o_totalprice) as total from orders group by o_custkey) as agg
		 where o_custkey = c_custkey and total > 10000`,
		`select c_custkey from customer join
			(select o_custkey, sum(o_totalprice) as total from orders group by o_custkey) as agg
			on o_custkey = c_custkey
		 where total > 10000`,
	}
	var want []string
	for i, sql := range variants {
		rows, err := db.Query(sql)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		got := fingerprint(rows)
		if i == 0 {
			want = got
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("variant %d disagrees: %v vs %v", i, got, want)
		}
	}
}

// TestQ1SpellingsReachOnePlan: the paper's thesis as a property of the
// plan, not only of the rows — the three spellings of Q1 the benchmark
// runs (correlated subquery, derived table, outerjoin with GroupBy and
// HAVING) end in byte-identical plan text under the full rule set, at
// both of the benchmark's scale factors. perfbench counts the distinct
// plans as opt.q1_distinct_plans.
func TestQ1SpellingsReachOnePlan(t *testing.T) {
	spellings := warmPassQueries()[len(TPCHQueryNames()):]
	for _, sf := range []float64{0.005, 0.01} {
		db, err := OpenTPCH(sf, 1)
		if err != nil {
			t.Fatal(err)
		}
		var want string
		for i, sql := range spellings {
			rows, err := db.QueryCfg(sql, DefaultConfig())
			if err != nil {
				t.Fatalf("SF %v, spelling %d: %v", sf, i, err)
			}
			if i == 0 {
				want = rows.Plan
			} else if rows.Plan != want {
				t.Errorf("SF %v: spelling %d reaches another plan than spelling 0\n--- spelling 0\n%s--- spelling %d\n%s", sf, i, want, i, rows.Plan)
			}
		}
	}
}

func TestExplainStages(t *testing.T) {
	db := sharedDB(t)
	out, err := db.Explain(`
		select c_custkey from customer
		where 10000 < (select sum(o_totalprice) from orders where o_custkey = c_custkey)`,
		DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"algebrized", "Apply introduction", "normalized", "cost-based plan"} {
		if !strings.Contains(out, stage) {
			t.Errorf("explain missing stage %q", stage)
		}
	}
	if !strings.Contains(out, "SUBQUERY") {
		t.Error("algebrized stage should show the scalar SUBQUERY node")
	}
	if !strings.Contains(out, "Apply (bind:customer.c_custkey)") {
		t.Error("apply stage should show the bound correlation")
	}
	if !strings.Contains(out, " (est=") {
		t.Error("cost-based stage should carry estimates")
	}
	for _, counter := range []string{" groups, ", " expressions, ", " rule firings, ", "explored to the end", " estimates derived) ==="} {
		if !strings.Contains(out, counter) {
			t.Errorf("cost-based header missing search counter %q", counter)
		}
	}
}

func TestCustomSchemaAPI(t *testing.T) {
	db := NewMemory()
	if err := db.CreateTable(&Table{
		Name: "t",
		Columns: []Column{
			{Name: "id", Type: types.Int},
			{Name: "grp", Type: types.Int},
			{Name: "val", Type: types.Float, Nullable: true},
		},
		Key: []int{0},
		Indexes: []Index{
			{Name: "t_pk", Cols: []int{0}, Unique: true, Ordered: true},
		},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		var v Value
		if i%10 == 0 {
			v = types.NullUnknown
		} else {
			v = types.NewFloat(float64(i))
		}
		if err := db.Insert("t", Row{types.NewInt(int64(i)), types.NewInt(int64(i % 3)), v}); err != nil {
			t.Fatal(err)
		}
	}
	db.Analyze()
	rows, err := db.Query(`select grp, count(*) as n, count(val) as nv from t group by grp order by grp`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 3 {
		t.Fatalf("groups = %d", len(rows.Data))
	}
	// 10 NULLs total; count(*) counts all, count(val) skips NULLs.
	var total, totalV int64
	for _, r := range rows.Data {
		total += r[1].Int()
		totalV += r[2].Int()
	}
	if total != 100 || totalV != 90 {
		t.Errorf("count(*)=%d count(val)=%d", total, totalV)
	}
	// Errors surface properly.
	if _, err := db.Query("select nope from t"); err == nil {
		t.Error("unknown column accepted")
	}
	if err := db.Insert("missing", Row{}); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestRowsTableRendering(t *testing.T) {
	db := sharedDB(t)
	rows, err := db.Query("select n_name, n_regionkey from nation order by n_nationkey limit 2")
	if err != nil {
		t.Fatal(err)
	}
	tbl := rows.Table()
	if !strings.Contains(tbl, "n_name") || !strings.Contains(tbl, "---") {
		t.Errorf("table rendering:\n%s", tbl)
	}
	lines := strings.Split(strings.TrimSpace(tbl), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Errorf("table has %d lines:\n%s", len(lines), tbl)
	}
}

func TestConfigZeroValueIsCorrelated(t *testing.T) {
	db := sharedDB(t)
	rows, err := db.QueryCfg(`
		select c_custkey from customer
		where exists (select o_orderkey from orders where o_custkey = c_custkey)
		limit 3`, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rows.Plan, "Apply") {
		t.Errorf("zero config should execute the correlated form:\n%s", rows.Plan)
	}
}

func TestMax1RowSurfacesAsError(t *testing.T) {
	db := sharedDB(t)
	_, err := db.Query(`
		select o_orderkey,
			(select l_linenumber from lineitem where l_orderkey = o_orderkey) as ln
		from orders`)
	if err == nil || !strings.Contains(err.Error(), "more than one row") {
		t.Fatalf("want scalar cardinality error, got %v", err)
	}
}

func TestPrepareAndRun(t *testing.T) {
	db := sharedDB(t)
	stmt, err := db.Prepare(`select count(*) as n from orders where o_custkey = 1`, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var first int64
	for i := 0; i < 3; i++ {
		rows, err := stmt.Run()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = rows.Data[0][0].Int()
		} else if rows.Data[0][0].Int() != first {
			t.Error("prepared statement results changed between runs")
		}
	}
	if stmt.Plan() == "" {
		t.Error("empty plan text")
	}
}

func TestExceptAllThroughAPI(t *testing.T) {
	db := sharedDB(t)
	rows, err := db.Query(`
		select c_custkey from customer
		except all
		select o_custkey from orders`)
	if err != nil {
		t.Fatal(err)
	}
	// Every custkey appears once on the left; those with at least one
	// order lose one occurrence. Expect customers with no orders, plus
	// nothing else since order custkeys repeat.
	check, err := db.Query(`
		select count(*) as n from customer
		where not exists (select o_orderkey from orders where o_custkey = c_custkey)`)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(rows.Data)) != check.Data[0][0].Int() {
		t.Errorf("EXCEPT ALL gave %d rows, NOT EXISTS says %d",
			len(rows.Data), check.Data[0][0].Int())
	}
}

func TestWithCTEInlining(t *testing.T) {
	db := sharedDB(t)
	rows, err := db.Query(`
		with bigorders as (
			select o_custkey, o_totalprice from orders where o_totalprice > 1000)
		select count(*) as n from bigorders`)
	if err != nil {
		t.Fatal(err)
	}
	check, err := db.Query(`select count(*) as n from orders where o_totalprice > 1000`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0].Int() != check.Data[0][0].Int() {
		t.Errorf("CTE count %d != direct %d", rows.Data[0][0].Int(), check.Data[0][0].Int())
	}
	// CTE referenced twice, with one reference under a scalar subquery
	// (the Q15 pattern).
	rows2, err := db.Query(`
		with totals (ck, total) as (
			select o_custkey, sum(o_totalprice) from orders group by o_custkey)
		select ck from totals
		where total = (select max(total) from totals)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows2.Data) < 1 {
		t.Error("Q15-style CTE query returned nothing")
	}
	// Chained CTEs see earlier ones; duplicates are rejected.
	if _, err := db.Query(`
		with a as (select 1 as x), b as (select x + 1 as y from a)
		select y from b`); err != nil {
		t.Errorf("chained CTEs: %v", err)
	}
	if _, err := db.Query(`
		with a as (select 1 as x), a as (select 2 as x) select x from a`); err == nil {
		t.Error("duplicate CTE accepted")
	}
	if _, err := db.Query(`with orders as (select 1 as x) select x from orders`); err == nil {
		t.Error("CTE shadowing a table accepted")
	}
}

func TestTPCHQ15RunsUnderAllConfigs(t *testing.T) {
	db := sharedDB(t)
	sql, ok := TPCHQuery("Q15")
	if !ok {
		t.Fatal("no Q15")
	}
	var want string
	for _, cfg := range []Config{DefaultConfig(), {Decorrelate: true, SimplifyOuterJoins: true}, {}} {
		rows, err := db.QueryCfg(sql, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := roundedFingerprint(rows)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("Q15 config disagreement:\n%s\nvs\n%s", want, got)
		}
	}
}

// TestQueryAnalyzeTrace: an analyzed run's trace carries each
// operator's statistics, and the inner side of a correlated Apply shows
// how often it re-opened. The inner side compares a column of orders
// with the outer row's c_acctbal, which no index seeks, so the Apply
// runs batched and opens its inner side once per distinct binding.
func TestQueryAnalyzeTrace(t *testing.T) {
	db := sharedDB(t)
	rows, err := db.QueryAnalyze(`
		select c_custkey from customer
		where exists (select o_orderkey from orders where o_totalprice < c_acctbal)`,
		Config{CostBased: true}) // correlated plan: per-row opens visible
	if err != nil {
		t.Fatal(err)
	}
	if rows.Trace == "" {
		t.Fatal("no trace")
	}
	if !strings.Contains(rows.Trace, "rows=") || !strings.Contains(rows.Trace, "opens=") {
		t.Errorf("trace lacks statistics:\n%s", rows.Trace)
	}
	// The inner side is the Apply line's second child: the next line
	// one level deeper after the first.
	depth := func(line string) int { return (len(line) - len(strings.TrimLeft(line, " "))) / 2 }
	lines := strings.Split(rows.Trace, "\n")
	inner := ""
	for i, line := range lines {
		if !strings.Contains(line, "apply=") {
			continue
		}
		if !strings.Contains(line, "apply=batched") {
			t.Fatalf("the Apply does not run batched:\n%s", rows.Trace)
		}
		children := 0
		for _, l := range lines[i+1:] {
			if l == "" || depth(l) <= depth(line) {
				break
			}
			if depth(l) == depth(line)+1 {
				if children++; children == 2 {
					inner = l
				}
			}
		}
		break
	}
	opens := 0
	if _, after, ok := strings.Cut(inner, "opens="); ok {
		fmt.Sscanf(after, "%d", &opens)
	}
	if opens < 2 {
		t.Errorf("the correlated inner side should re-open per binding, opened %d times:\n%s", opens, rows.Trace)
	}
	// Non-analyze queries leave Trace empty.
	plain, err := db.Query("select count(*) as n from nation")
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != "" {
		t.Error("plain query should not carry a trace")
	}
}

func TestIntervalArithmetic(t *testing.T) {
	db := sharedDB(t)
	// date + interval folds to a constant: both spellings agree.
	a, err := db.Query(`select count(*) as n from orders
		where o_orderdate >= date '1993-07-01'
		  and o_orderdate < date '1993-07-01' + interval '3' month`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Query(`select count(*) as n from orders
		where o_orderdate >= date '1993-07-01'
		  and o_orderdate < date '1993-10-01'`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Data[0][0].Int() != b.Data[0][0].Int() {
		t.Errorf("interval fold: %d != %d", a.Data[0][0].Int(), b.Data[0][0].Int())
	}
	// year and day units, and subtraction.
	c, err := db.Query(`select count(*) as n from orders
		where o_orderdate < date '1994-01-01' - interval '1' year + interval '10' day`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := db.Query(`select count(*) as n from orders
		where o_orderdate < date '1993-01-11'`)
	if err != nil {
		t.Fatal(err)
	}
	if c.Data[0][0].Int() != d.Data[0][0].Int() {
		t.Errorf("chained intervals: %d != %d", c.Data[0][0].Int(), d.Data[0][0].Int())
	}
	// interval against a non-constant is rejected.
	if _, err := db.Query(`select o_orderdate + interval '1' day as x from orders`); err == nil {
		t.Error("interval over column accepted (not supported)")
	}
}

// TestTraceCarriesEstimates: every operator line of Q2's traced run
// ends with the optimizer's estimated rows, the operator's own
// estimated cost and the rows' q-error against the actual rows — at
// least 1 by definition, or "-" for an operator that never opened —
// and some operators opened. Q2's top operators are estimated at a
// fraction of a row, which shows as such, not as 0.
func TestTraceCarriesEstimates(t *testing.T) {
	q, _ := TPCHQuery("Q2")
	rows, err := sharedDB(t).QueryAnalyze(q, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(rows.Trace), "\n")
	opened, fractions := 0, 0
	for _, line := range lines {
		i := strings.LastIndex(line, " (est=")
		var est, cost, qerr float64
		switch n, err := fmt.Sscanf(line[max(i, 0):], " (est=%g cost=%g q=%g)", &est, &cost, &qerr); {
		case i >= 0 && n == 3 && err == nil && qerr >= 1:
			opened++
		case i >= 0 && n == 2 && strings.HasSuffix(line, " q=-)"):
		default:
			t.Errorf("line without est=, cost= and q=: %q", line)
		}
		if est > 0 && est < 1 {
			fractions++
		}
	}
	if opened == 0 {
		t.Errorf("no operator line with a q-error:\n%s", rows.Trace)
	}
	if fractions == 0 {
		t.Errorf("no operator estimated at a fraction of a row:\n%s", rows.Trace)
	}
}
