package exec

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/algebrize"
	"orthoq/internal/core"
	"orthoq/internal/obs"
	"orthoq/internal/sql/parser"
	"orthoq/internal/storage"
	"orthoq/internal/tpch"
)

// runSQLWith compiles and executes sql with an explicit parallelism.
func runSQLWith(t testing.TB, st *storage.Store, sql string, par int) *Result {
	t.Helper()
	out, _ := runSQLCtx(t, st, sql, par)
	return out
}

// placeExchange puts an exchange over the highest subtree down rel's
// streaming side that StreamDriver accepts, as the optimizer would at
// Parallelism > 1 — the executor places none — and splits a GroupBy
// right above it (§3.3), its LocalGroupBy below the exchange.
func placeExchange(st *storage.Store, md *algebra.Metadata, rel algebra.Rel) algebra.Rel {
	if _, ok := StreamDriver(st.Catalog.Table, rel); ok {
		return &algebra.Exchange{Input: rel}
	}
	switch t := rel.(type) {
	case *algebra.GroupBy:
		if _, ok := StreamDriver(st.Catalog.Table, t.Input); ok {
			if split, ok := core.TrySplitGroupBy(md, t); ok {
				return placeExchange(st, md, split)
			}
		}
	case *algebra.Sort, *algebra.Project, *algebra.Join, *algebra.Apply:
	default:
		return rel
	}
	ins := slices.Clone(rel.Inputs())
	ins[0] = placeExchange(st, md, ins[0])
	return rel.WithInputs(ins)
}

// runSQLCtx is runSQLWith, also returning the run's Context. At
// Parallelism > 1 the plan gets an exchange (placeExchange).
func runSQLCtx(t testing.TB, st *storage.Store, sql string, par int) (*Result, *Context) {
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
	if par > 1 {
		rel = placeExchange(st, md, rel)
	}
	ctx := NewContext(st, md)
	ctx.RowBudget = 10_000_000
	ctx.Parallelism = par
	out, err := Run(ctx, rel, res.OutCols)
	if err != nil {
		t.Fatalf("run (par=%d): %v\nplan:\n%s", par, err, algebra.FormatRel(md, rel))
	}
	return out, ctx
}

// TestExchangeCompilesTreesItRuns: an exchange compiles one worker tree
// per worker it starts — the first with the plan, the rest at Open —
// and none only to learn its layout: an exchange at a scan, one at the
// LocalGroupBy of a split aggregation, and each as one worker over a
// table of one morsel.
func TestExchangeCompilesTreesItRuns(t *testing.T) {
	st := bigDB(t)
	for _, q := range []string{
		`select o_orderkey from orders where o_totalprice > 50`,
		`select o_custkey, sum(o_totalprice) as s from orders group by o_custkey`,
		`select c_custkey from customer where c_acctbal > 0`,
		`select c_nationkey, count(*) as n from customer group by c_nationkey`,
	} {
		for _, par := range []int{2, 4} {
			_, ctx := runSQLCtx(t, st, q, par)
			workers, trees := ctx.WorkersSpawned(), ctx.shared.trees.Load()
			if workers == 0 || trees != workers {
				t.Errorf("par=%d: %d worker trees compiled for %d workers: %s", par, trees, workers, q)
			}
		}
	}
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
	_, err = Run(ctx, &algebra.Exchange{Input: rel}, res.OutCols)
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
	rel = placeExchange(st, md, rel)
	ctx := NewContext(st, md)
	ctx.Parallelism = 3
	ctx.EnableTrace()
	if _, err := Run(ctx, rel, res.OutCols); err != nil {
		t.Fatal(err)
	}
	trace := ctx.FormatTrace(rel)
	if !strings.Contains(trace, "LGb") || !strings.Contains(trace, "workers=3") {
		t.Fatalf("trace missing an LGb exchange of workers=3:\n%s", trace)
	}
	wantMorsels := fmt.Sprintf("morsels=%d", (5004+morselSize-1)/morselSize)
	if !strings.Contains(trace, wantMorsels) {
		t.Fatalf("trace missing %s:\n%s", wantMorsels, trace)
	}

	// Q4 kept correlated: its EXISTS Apply runs on the workers, under
	// the LocalGroupBy of the split aggregation and, run alone, under an
	// exchange of its own. Either way the Apply's span carries its
	// strategy, and its bindings are summed over the workers — one per
	// outer row, as a serial run counts.
	tst := tpchStore(t)
	md, rel, out := compilePlan(t, tst, tpch.Queries["Q4"], core.Options{KeepCorrelated: true})
	var ap *algebra.Apply
	for n := rel; ap == nil && len(n.Inputs()) > 0; n = n.Inputs()[0] {
		ap, _ = n.(*algebra.Apply)
	}
	if ap == nil {
		t.Fatalf("no Apply in Q4:\n%s", algebra.FormatRel(md, rel))
	}
	applySpan := func(root algebra.Rel, out []algebra.ColID, par int) (*obs.Span, string) {
		if par > 1 {
			root = placeExchange(tst, md, root)
		}
		ctx := NewContext(tst, md)
		ctx.Parallelism = par
		ctx.EnableTrace()
		if _, err := Run(ctx, root, out); err != nil {
			t.Fatal(err)
		}
		var span *obs.Span
		ctx.Spans(root).Walk(func(sp *obs.Span) {
			if sp.Op == "Apply" {
				span = sp
			}
		})
		return span, ctx.FormatTrace(root)
	}
	orders, _ := tst.Table("orders")
	wantMorsels = fmt.Sprintf("morsels=%d", (orders.Version().RowCount()+morselSize-1)/morselSize)
	for _, c := range []struct {
		root algebra.Rel
		out  []algebra.ColID
	}{{rel, out}, {ap, algebra.OutputCols(ap).Ordered()}} {
		serial, _ := applySpan(c.root, c.out, 0)
		par, trace := applySpan(c.root, c.out, 2)
		if !strings.Contains(trace, "workers=2") || !strings.Contains(trace, wantMorsels) {
			t.Fatalf("Q4 trace missing workers=2 or %s:\n%s", wantMorsels, trace)
		}
		if serial.Bindings == 0 || par.Bindings != serial.Bindings || par.Strategy != serial.Strategy {
			t.Fatalf("Q4 Apply at two workers: strategy %q, %d bindings; serial %q, %d\n%s",
				par.Strategy, par.Bindings, serial.Strategy, serial.Bindings, trace)
		}
	}
}

// TestParallelApplyBuildsSegmentJoinPerOpen: a worker compiles an
// Apply's inner side, so a hash join there whose build side reads the
// current segment of a SegmentApply must build per Open. Shared across
// Opens and workers, every segment would probe the first segment's
// build. The Apply runs Q17's segmented shape once per region.
func TestParallelApplyBuildsSegmentJoinPerOpen(t *testing.T) {
	st := testDB(t)
	md := algebra.NewMetadata()
	build := func(sql string) (algebra.Rel, []algebra.ColID) {
		q, err := parser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		res, err := algebrize.Build(st.Catalog, md, q)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := core.Normalize(md, res.Rel, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rel, res.OutCols
	}
	outer, outerCols := build(`select r_regionkey from region`)
	inner, innerCols := build(q17ShapeSQL)
	seg := introduceSegmentApply(md, inner)
	if seg == nil {
		t.Fatalf("segment apply not introduced:\n%s", algebra.FormatRel(md, inner))
	}
	ap := &algebra.Apply{Kind: algebra.InnerJoin, Left: outer, Right: seg}
	out := append(append([]algebra.ColID(nil), outerCols...), innerCols...)
	run := func(par int) []string {
		ctx := NewContext(st, md)
		ctx.Parallelism = par
		root := algebra.Rel(ap)
		if par > 1 {
			if _, ok := StreamDriver(ctx.schema, ap); !ok {
				t.Fatalf("no exchange over the Apply:\n%s", algebra.FormatRel(md, ap))
			}
			root = &algebra.Exchange{Input: ap}
		}
		res, err := Run(ctx, root, out)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		return resultKey(res)
	}
	serial := run(0)
	if len(serial) == 0 {
		t.Fatal("the serial run returned no rows")
	}
	if got := run(2); strings.Join(got, ";") != strings.Join(serial, ";") {
		t.Fatalf("two workers:\n got  %v\n want %v", got, serial)
	}
}

// TestPlanParallelStopsAtSerialOperators checks the precondition of an
// exchange: StreamDriver refuses Top and seek-compiled access paths.
func TestPlanParallelStopsAtSerialOperators(t *testing.T) {
	st := testDB(t)
	opts := core.Options{}
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
		rel, err := core.Normalize(md, res.Rel, opts)
		if err != nil {
			t.Fatal(err)
		}
		return NewContext(st, md), rel
	}
	drives := func(ctx *Context, rel algebra.Rel) bool {
		_, ok := StreamDriver(ctx.schema, rel)
		return ok
	}

	ctx, rel := build(`select o_orderkey from orders limit 3`)
	if drives(ctx, rel) {
		t.Fatalf("a limit query has no stream driver")
	}

	// Equality on the indexed primary key compiles to a seek: a
	// parallel full scan would be a de-optimization.
	ctx, rel = build(`select o_totalprice from orders where o_orderkey = 10`)
	if drives(ctx, rel) {
		t.Fatalf("a seekable query has no stream driver")
	}

	ctx, rel = build(`select o_orderkey from orders where o_totalprice > 50`)
	if !drives(ctx, rel) {
		t.Fatalf("a filtered scan should have a stream driver")
	}

	// A GroupBy aggregates the exchange's stream; its §3.3 split's
	// LocalGroupBy runs on the workers.
	ctx, rel = build(`select o_custkey, sum(o_totalprice) as s from orders group by o_custkey`)
	gb := rel.(*algebra.GroupBy)
	if drives(ctx, gb) || !drives(ctx, gb.Input) {
		t.Fatalf("want an exchange below the GroupBy, not over it:\n%s", algebra.FormatRel(ctx.Md, rel))
	}
	split, _ := core.TrySplitGroupBy(ctx.Md, gb)
	if lg := split.(*algebra.GroupBy).Input; !drives(ctx, lg) {
		t.Fatalf("the split's LocalGroupBy has no stream driver")
	}

	// An Apply over a scan has the scan as its driver: each worker runs
	// it over its morsels' outer rows.
	opts.KeepCorrelated = true
	ctx, rel = build(`select o_orderkey from orders o
		where exists (select l_orderkey from lineitem l where l.l_orderkey = o.o_orderkey)`)
	var ap *algebra.Apply
	for n := rel; ap == nil && len(n.Inputs()) > 0; n = n.Inputs()[0] {
		ap, _ = n.(*algebra.Apply)
	}
	if _, ok := ap.Left.(*algebra.Get); !ok {
		t.Fatalf("want an Apply over a scan:\n%s", algebra.FormatRel(ctx.Md, rel))
	}
	if !drives(ctx, ap) {
		t.Fatalf("an Apply over a scan should have a stream driver")
	}

	// An Apply whose inner side reads a segment bound outside it cannot
	// run on a worker.
	foreign := &algebra.Apply{Kind: ap.Kind, Left: ap.Left, On: ap.On,
		Right: &algebra.SegmentRef{Cols: algebra.OutputCols(ap.Right).Ordered()}}
	if drives(ctx, foreign) {
		t.Fatalf("an Apply over a foreign SegmentRef has a stream driver")
	}

	// Top stops the driver search.
	if drives(ctx, &algebra.Top{Input: ap, N: 3}) {
		t.Fatalf("a Top over an Apply has a stream driver")
	}
}

// TestWorkerCloneCarriesStrategy: a morsel worker runs the Apply path
// its coordinator was told to, from the same estimates, and — one serial
// strand — never fans out again: the clone keeps ForceBatched and
// Estimates and drops Parallelism.
func TestWorkerCloneCarriesStrategy(t *testing.T) {
	ctx := NewContext(nil, algebra.NewMetadata())
	ctx.Parallelism, ctx.ForceBatched = 4, true
	ctx.Estimates = Estimates{&algebra.Values{}: {Rows: 1}}
	if w := ctx.workerClone(); w.Parallelism != 0 || !w.ForceBatched || len(w.Estimates) != 1 {
		t.Fatalf("worker Parallelism = %d, ForceBatched = %v, %d estimates; want 0, true and 1",
			w.Parallelism, w.ForceBatched, len(w.Estimates))
	}
}
