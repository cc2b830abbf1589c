package exec

import (
	"fmt"
	"strings"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/algebrize"
	"orthoq/internal/core"
	"orthoq/internal/sql/parser"
	"orthoq/internal/storage"
)

// runSQLWith compiles and executes sql with an explicit parallelism.
func runSQLWith(t testing.TB, st *storage.Store, sql string, par int) *Result {
	t.Helper()
	q, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	md := algebra.NewMetadata()
	res, err := algebrize.Build(st.Catalog, md, q)
	if err != nil {
		t.Fatalf("algebrize: %v", err)
	}
	rel, err := core.Normalize(md, res.Rel, core.Options{})
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	ctx := NewContext(st, md)
	ctx.RowBudget = 10_000_000
	ctx.Parallelism = par
	out, err := Run(ctx, rel, res.OutCols)
	if err != nil {
		t.Fatalf("run (par=%d): %v\nplan:\n%s", par, err, algebra.FormatRel(md, rel))
	}
	return out
}

func TestMorselSourceCoversTable(t *testing.T) {
	for _, total := range []int{0, 1, morselSize - 1, morselSize, morselSize + 1, 3*morselSize + 7} {
		src := newMorselSource(total)
		covered := 0
		prevHi := 0
		for {
			lo, hi, ok := src.claim()
			if !ok {
				break
			}
			if lo != prevHi || hi <= lo || hi > total {
				t.Fatalf("total=%d: bad morsel [%d,%d) after %d", total, lo, hi, prevHi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != total {
			t.Fatalf("total=%d: covered %d rows", total, covered)
		}
		if _, _, ok := src.claim(); ok {
			t.Fatalf("total=%d: claim succeeded after exhaustion", total)
		}
	}
}

// bigDB loads enough orders rows to span several morsels.
func bigDB(t testing.TB) *storage.Store {
	t.Helper()
	st := testDB(t)
	tbl, _ := st.Table("orders")
	rows := make([][]any, 0, 5000)
	for i := 0; i < 5000; i++ {
		rows = append(rows, []any{
			1000 + i, i % 97, "O", float64(i%13) * 10.0,
			d("1996-01-01"), "1-URGENT", "clerk", 0, "o",
		})
	}
	mustLoad(t, st, "orders", rows)
	tbl.BuildIndexes()
	return st
}

func TestParallelMatchesSerial(t *testing.T) {
	st := bigDB(t)
	queries := []string{
		// morsel scan + filter
		`select o_orderkey from orders where o_totalprice > 50`,
		// parallel partial aggregation (sum/count/avg/min/max)
		`select o_custkey, sum(o_totalprice) as s, count(*) as n,
			avg(o_totalprice) as a, min(o_totalprice) as mn, max(o_totalprice) as mx
			from orders group by o_custkey`,
		// scalar aggregation
		`select sum(o_totalprice) as s, count(*) as n from orders`,
		// scalar aggregation over empty input (one-row §1.1 result)
		`select sum(o_totalprice) as s, count(*) as n from orders where o_custkey = -1`,
		// parallel probe of a shared hash-join build
		`select o_orderkey, c_name from orders, customer
			where o_custkey = c_custkey and o_totalprice > 100`,
		// join feeding aggregation
		`select c_nationkey, count(*) as n from orders, customer
			where o_custkey = c_custkey group by c_nationkey`,
		// sort above the exchange
		`select o_custkey, sum(o_totalprice) as s from orders
			group by o_custkey order by s desc, o_custkey`,
		// top keeps the whole plan serial but must still be correct
		`select o_orderkey from orders order by o_orderkey limit 5`,
	}
	for qi, q := range queries {
		serial := resultKey(runSQLWith(t, st, q, 0))
		for _, par := range []int{2, 4, 8} {
			got := resultKey(runSQLWith(t, st, q, par))
			if len(got) != len(serial) {
				t.Fatalf("query %d par=%d: %d rows, want %d", qi, par, len(got), len(serial))
			}
			for i := range got {
				if got[i] != serial[i] {
					t.Fatalf("query %d par=%d: row %d = %q, want %q", qi, par, i, got[i], serial[i])
				}
			}
		}
	}
}

func TestParallelRowBudgetExact(t *testing.T) {
	st := bigDB(t)
	q, err := parser.Parse(`select o_orderkey from orders`)
	if err != nil {
		t.Fatal(err)
	}
	md := algebra.NewMetadata()
	res, err := algebrize.Build(st.Catalog, md, q)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := core.Normalize(md, res.Rel, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(st, md)
	ctx.Parallelism = 4
	ctx.RowBudget = 100
	_, err = Run(ctx, rel, res.OutCols)
	if err == nil || !strings.Contains(err.Error(), "row budget exceeded") {
		t.Fatalf("err = %v, want row budget exceeded", err)
	}
}

func TestParallelTraceReportsWorkers(t *testing.T) {
	st := bigDB(t)
	q, err := parser.Parse(`select o_custkey, sum(o_totalprice) as s from orders group by o_custkey`)
	if err != nil {
		t.Fatal(err)
	}
	md := algebra.NewMetadata()
	res, err := algebrize.Build(st.Catalog, md, q)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := core.Normalize(md, res.Rel, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(st, md)
	ctx.Parallelism = 3
	ctx.EnableTrace()
	if _, err := Run(ctx, rel, res.OutCols); err != nil {
		t.Fatal(err)
	}
	trace := ctx.FormatTrace(rel)
	if !strings.Contains(trace, "workers=3") {
		t.Fatalf("trace missing workers=3:\n%s", trace)
	}
	wantMorsels := fmt.Sprintf("morsels=%d", (5004+morselSize-1)/morselSize)
	if !strings.Contains(trace, wantMorsels) {
		t.Fatalf("trace missing %s:\n%s", wantMorsels, trace)
	}
}

// TestPlanParallelStopsAtSerialOperators checks the eligibility
// analysis: Top and seek-compiled access paths must not be morselized.
func TestPlanParallelStopsAtSerialOperators(t *testing.T) {
	st := testDB(t)
	build := func(sql string) (*Context, algebra.Rel) {
		q, err := parser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		md := algebra.NewMetadata()
		res, err := algebrize.Build(st.Catalog, md, q)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := core.Normalize(md, res.Rel, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ctx := NewContext(st, md)
		ctx.Parallelism = 4
		return ctx, rel
	}

	ctx, rel := build(`select o_orderkey from orders limit 3`)
	if pp := planParallel(ctx, rel); pp != nil {
		t.Fatalf("limit query should stay serial, got exchange at %T", pp.at)
	}

	// Equality on the indexed primary key compiles to a seek: a
	// parallel full scan would be a de-optimization.
	ctx, rel = build(`select o_totalprice from orders where o_orderkey = 10`)
	if pp := planParallel(ctx, rel); pp != nil {
		t.Fatalf("seekable query should stay serial, got exchange at %T", pp.at)
	}

	ctx, rel = build(`select o_orderkey from orders where o_totalprice > 50`)
	if pp := planParallel(ctx, rel); pp == nil {
		t.Fatalf("filtered scan should be parallel-eligible")
	}
}

// TestWorkerCloneCarriesStrategy: a morsel worker runs the Apply path
// its coordinator was told to, from the same estimates, and — one serial
// strand — never fans out again: the clone keeps Apply and Estimates
// and drops Parallelism.
func TestWorkerCloneCarriesStrategy(t *testing.T) {
	ctx := NewContext(nil, algebra.NewMetadata())
	ctx.Parallelism, ctx.Apply = 4, "batched"
	ctx.Estimates = Estimates{&algebra.Values{}: {Rows: 1}}
	if w := ctx.workerClone(); w.Parallelism != 0 || w.Apply != "batched" || len(w.Estimates) != 1 {
		t.Fatalf("worker Parallelism = %d, Apply = %q, %d estimates; want 0, batched and 1",
			w.Parallelism, w.Apply, len(w.Estimates))
	}
}
