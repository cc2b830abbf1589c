package exec

// Unit tests for the pull protocol: filterPred narrowing (including
// NULL predicates and conjunct short-circuit), the row cap a consumer
// hands down with its Batch, and end-to-end filter → project →
// aggregate chains with NULLs.

import (
	"fmt"
	"strings"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/algebrize"
	"orthoq/internal/core"
	"orthoq/internal/obs"
	"orthoq/internal/sql/parser"
	"orthoq/internal/sql/types"
	"orthoq/internal/storage"
)

// expectSQL runs sql over the correlated normal form and checks the
// rows against want.
func expectSQL(t *testing.T, st *storage.Store, sql string, want ...string) {
	t.Helper()
	expectRows(t, runSQL(t, st, sql, core.Options{}), want...)
}

// narrowAll filters rows with pred through a filterPred over a
// two-column layout: col 1 → ordinal 0, col 2 → ordinal 1.
func narrowAll(pred algebra.Scalar, rows []types.Row) ([]int, error) {
	p := newFilterPred(NewContext(nil, nil), pred, map[algebra.ColID]int{1: 0, 2: 1})
	return p.narrow(&Batch{Rows: rows})
}

func intRow(vals ...any) types.Row {
	row := make(types.Row, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			row[i] = types.NewInt(int64(x))
		case nil:
			row[i] = types.NullUnknown
		default:
			panic("bad literal")
		}
	}
	return row
}

// TestApplyConjunctsNarrowing: each conjunct shrinks the selection in
// place; NULL comparisons are not TRUE and eliminate the row.
func TestApplyConjunctsNarrowing(t *testing.T) {
	rows := []types.Row{
		intRow(5, 1),   // passes both
		intRow(0, 1),   // fails col1 > 2
		intRow(9, nil), // col2 NULL: second conjunct is NULL, not TRUE
		intRow(7, 1),   // passes both
		intRow(3, 0),   // fails col2 = 1
	}
	pred := &algebra.And{Args: []algebra.Scalar{
		&algebra.Cmp{Op: algebra.CmpGt, L: &algebra.ColRef{Col: 1}, R: &algebra.Const{Val: types.NewInt(2)}},
		&algebra.Cmp{Op: algebra.CmpEq, L: &algebra.ColRef{Col: 2}, R: &algebra.Const{Val: types.NewInt(1)}},
	}}
	sel, err := narrowAll(pred, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0] != 0 || sel[1] != 3 {
		t.Fatalf("sel = %v, want [0 3]", sel)
	}
}

// TestApplyConjunctsShortCircuit: a row eliminated by the first
// conjunct must never reach a later, erroring conjunct — the
// vectorized form of AND's left-to-right short circuit.
func TestApplyConjunctsShortCircuit(t *testing.T) {
	rows := []types.Row{
		intRow(2, 1), // passes guard, 10/2 > 3 true
		intRow(0, 1), // fails guard; would divide by zero in conjunct 2
		intRow(1, 1), // passes guard, 10/1 > 3 true
	}
	pred := &algebra.And{Args: []algebra.Scalar{
		&algebra.Cmp{Op: algebra.CmpNe, L: &algebra.ColRef{Col: 1}, R: &algebra.Const{Val: types.NewInt(0)}},
		&algebra.Cmp{Op: algebra.CmpGt,
			L: &algebra.Arith{Op: types.OpDiv, L: &algebra.Const{Val: types.NewInt(10)}, R: &algebra.ColRef{Col: 1}},
			R: &algebra.Const{Val: types.NewInt(3)}},
	}}
	sel, err := narrowAll(pred, rows)
	if err != nil {
		t.Fatalf("short circuit violated: %v", err)
	}
	if len(sel) != 2 || sel[0] != 0 || sel[1] != 2 {
		t.Fatalf("sel = %v, want [0 2]", sel)
	}
}

// TestApplyConjunctsEmptySelection: once the selection is empty, later
// conjuncts are skipped entirely.
func TestApplyConjunctsEmptySelection(t *testing.T) {
	rows := []types.Row{intRow(0, 1), intRow(0, 2)}
	pred := &algebra.And{Args: []algebra.Scalar{
		&algebra.Cmp{Op: algebra.CmpGt, L: &algebra.ColRef{Col: 1}, R: &algebra.Const{Val: types.NewInt(5)}},
		&algebra.Cmp{Op: algebra.CmpGt,
			L: &algebra.Arith{Op: types.OpDiv, L: &algebra.Const{Val: types.NewInt(1)}, R: &algebra.Const{Val: types.NewInt(0)}},
			R: &algebra.Const{Val: types.NewInt(0)}},
	}}
	// The second conjunct divides by a constant zero: it folds to a
	// kernel that fails whenever it is evaluated over any row.
	sel, err := narrowAll(pred, rows)
	if err != nil {
		t.Fatalf("conjunct after empty selection ran: %v", err)
	}
	if len(sel) != 0 {
		t.Fatalf("sel = %v, want empty", sel)
	}
}

// sliceIter serves a fixed row slice and counts the rows it hands out.
type sliceIter struct {
	rows   []types.Row
	pos    int
	served int
}

func (s *sliceIter) Open() error { s.pos = 0; return nil }
func (s *sliceIter) NextBatch(b *Batch) error {
	b.serve(s.rows, &s.pos)
	s.served += b.Len()
	return nil
}
func (s *sliceIter) Close() error { return nil }

func intRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = intRow(i, i)
	}
	return rows
}

// TestRowReaderDeliversEveryRowOnce: a rowReader — what a Cursor is —
// turns batches back into rows, in order, pulling windows no larger
// than the cap it is given.
func TestRowReaderDeliversEveryRowOnce(t *testing.T) {
	n := BatchSize + 37
	src := &sliceIter{rows: intRows(n)}
	rd := rowReader{it: src}
	for i := 0; i < n; i++ {
		row, ok, err := rd.next(5)
		if err != nil || !ok {
			t.Fatalf("row %d: ok=%v err=%v", i, ok, err)
		}
		if v := row[0].Int(); v != int64(i) {
			t.Fatalf("row %d = %d", i, v)
		}
		if want := (i/5 + 1) * 5; src.served > want {
			t.Fatalf("after %d rows the producer served %d, cap 5 allows %d", i+1, src.served, want)
		}
	}
	if _, ok, err := rd.next(5); ok || err != nil {
		t.Fatalf("past the end: ok=%v err=%v", ok, err)
	}
}

// TestRowCapStopsProducers: what Next gave consumers for free —
// "produce no row I will discard" — holds through the batch protocol.
// Top asks its input for exactly its remaining count, through a filter
// and a projection-free chain, and Max1Row asks for two rows however
// many there are.
func TestRowCapStopsProducers(t *testing.T) {
	ctx := NewContext(nil, nil)
	cols := []algebra.ColID{1, 2}
	pass := &algebra.Cmp{Op: algebra.CmpGe, L: &algebra.ColRef{Col: 1}, R: &algebra.Const{Val: types.NewInt(0)}}

	src := &sliceIter{rows: intRows(5000)}
	in := newNode(src, cols)
	filt := newNode(&filterIter{in: in, filt: newFilterPred(ctx, pass, in.ords)}, cols)
	top := &topIter{in: filt, n: 1500}
	if err := top.Open(); err != nil {
		t.Fatal(err)
	}
	var b Batch
	got := 0
	for {
		if err := top.NextBatch(&b); err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 {
			break
		}
		got += b.Len()
	}
	if got != 1500 || src.served != 1500 {
		t.Fatalf("Top 1500 returned %d rows and its input served %d; want 1500 and 1500", got, src.served)
	}

	src = &sliceIter{rows: intRows(5000)}
	m1 := &max1RowIter{in: newNode(src, cols)}
	if err := m1.Open(); err != nil {
		t.Fatal(err)
	}
	if err := m1.NextBatch(&b); err == nil || !strings.Contains(err.Error(), "more than one row") {
		t.Fatalf("Max1Row over 5000 rows: err = %v", err)
	}
	if src.served != 2 {
		t.Fatalf("Max1Row pulled %d rows to decide, want 2", src.served)
	}

	src = &sliceIter{rows: intRows(1)}
	m1 = &max1RowIter{in: newNode(src, cols)}
	if err := m1.Open(); err != nil {
		t.Fatal(err)
	}
	if err := m1.NextBatch(&b); err != nil || b.Len() != 1 {
		t.Fatalf("Max1Row over one row: len=%d err=%v", b.Len(), err)
	}
	if err := m1.NextBatch(&b); err != nil || b.Len() != 0 {
		t.Fatalf("Max1Row second pull: len=%d err=%v", b.Len(), err)
	}
}

// TestGuardRejectsCapOvershoot: a producer that returns more rows than
// its consumer asked for is an internal error at the operator boundary,
// not extra rows in the answer.
func TestGuardRejectsCapOvershoot(t *testing.T) {
	g := &guardIter{in: overshoot{}, op: "Test", ctx: NewContext(nil, nil)}
	b := Batch{Limit: 3}
	if err := g.NextBatch(&b); err == nil || !strings.Contains(err.Error(), "over a cap of 3") {
		t.Fatalf("err = %v", err)
	}
}

type overshoot struct{}

func (overshoot) Open() error  { return nil }
func (overshoot) Close() error { return nil }
func (overshoot) NextBatch(b *Batch) error {
	b.Rows, b.Sel = intRows(4), nil
	return nil
}

// innerRowsPerBinding runs sql traced under the given Apply strategy and
// returns, for the first Apply in the plan, its binding count and the
// rows the operator directly under its inner side's root produced.
func innerRowsPerBinding(t *testing.T, st *storage.Store, sql, strategy string, under string) (bindings, innerRows int64) {
	t.Helper()
	md, rel, out := compilePlan(t, st, sql, core.Options{KeepCorrelated: true})
	ctx := NewContext(st, md)
	ctx.ForceBatched = strategy == "batched"
	ctx.EnableTrace()
	if _, err := Run(ctx, rel, out); err != nil {
		t.Fatalf("%v\nplan:\n%s", err, algebra.FormatRel(md, rel))
	}
	found := false
	ctx.Spans(rel).Walk(func(s *obs.Span) {
		if s.Op != "Apply" || found {
			return
		}
		found = true
		bindings = s.InnerExecs
		inner := s.Children[1]
		for inner.Op != under && len(inner.Children) > 0 {
			inner = inner.Children[0]
		}
		if inner.Op != under {
			t.Fatalf("no %s under the Apply's inner side:\n%s", under, ctx.FormatTrace(rel))
		}
		innerRows = inner.Rows
	})
	if !found {
		t.Fatalf("no Apply in\n%s", algebra.FormatRel(md, rel))
	}
	return bindings, innerRows
}

// TestApplyInnerRowCaps: under the batched strategy a Semi Apply with
// a trivially-true On takes one inner row per binding, and a Max1Row
// inner side at most two. Three customers have orders and customer 1
// has two of them: uncapped, the four inner executions of the EXISTS
// would produce four rows.
func TestApplyInnerRowCaps(t *testing.T) {
	st := testDB(t)
	execs, rows := innerRowsPerBinding(t, st,
		`select c_custkey from customer c where exists (select o_orderkey from orders o where o.o_custkey = c.c_custkey)`,
		"batched", "Select")
	if execs != 4 || rows != 3 {
		t.Errorf("semi apply: %d inner rows for %d inner executions, want 3 (one per customer with orders) for 4", rows, execs)
	}
	execs, rows = innerRowsPerBinding(t, st,
		`select c_custkey, (select o_orderkey from orders o where o.o_custkey = c.c_custkey and o.o_orderkey <> 10) as k from customer c`,
		"batched", "Select")
	if execs == 0 || rows > 2*execs {
		t.Errorf("max1row apply: %d inner rows for %d inner executions, want at most two each", rows, execs)
	}
}

// TestBatchFilterProjectAggWithNulls: filter → project → aggregate
// chains where NULLs flow through every stage. NULLs come from outer-join padding and scalar subqueries
// over empty sets, so they exercise the compiled evaluators' tri-state
// logic rather than storage-level NULLs alone.
func TestBatchFilterProjectAggWithNulls(t *testing.T) {
	st := testDB(t)

	// Outer-join padding: dave (custkey 4) has no orders, so o_totalprice
	// is NULL for him; the filter keeps rows where the padded comparison
	// is TRUE (NULL comparisons drop the row), the projection doubles a
	// possibly-NULL value, the aggregate skips NULLs but counts rows.
	expectSQL(t, st, `
		select c_custkey, sum(o_totalprice * 2) as s, count(*) as n
		from customer left outer join orders on o_custkey = c_custkey
		group by c_custkey`,
		"1|2400|2", "2|4000000|1", "3|200|1", "4|NULL|1")

	// Filter over a NULL-yielding CASE: only TRUE survives.
	expectSQL(t, st, `
		select c_custkey from customer
		where case when c_acctbal > 150 then c_acctbal < 250 else null end`,
		"2")

	// Aggregate over a projected NULL-bearing expression: avg ignores
	// NULLs, count(expr) counts non-NULLs, count(*) counts all.
	expectSQL(t, st, `
		select avg(case when c_acctbal > 0 then c_acctbal else null end) as a,
		       count(case when c_acctbal > 0 then c_acctbal else null end) as k,
		       count(*) as n
		from customer`,
		"200|3|4")

	// Group keys that are themselves NULL (scalar subquery over empty
	// set): NULL keys group together.
	expectSQL(t, st, `
		select v, count(*) as n from (
			select (select max(o_totalprice) from orders
			        where o_custkey = c_custkey and o_totalprice > 1000) as v
			from customer) as t
		group by v`,
		"2000000|1", "NULL|3")
}

// TestBatchRowBudgetAborts: the budget is charged batch-wise but must
// still abort runaway plans.
func TestBatchRowBudgetAborts(t *testing.T) {
	st := testDB(t)
	q, err := parser.Parse(`select l1.l_orderkey from lineitem l1, lineitem l2, lineitem l3`)
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
	ctx.RowBudget = 50
	_, err = Run(ctx, rel, res.OutCols)
	if err == nil || !strings.Contains(err.Error(), "row budget exceeded") {
		t.Fatalf("want budget error, got %v", err)
	}
}

// TestCursorStopsItsPlan: a reader that stops early has not made the
// plan work far ahead of it. The cursor's row cap starts at one and
// doubles per refill, so five rows read cost at most seven produced —
// over a 12 000-row scan under a RowBudget a full batch would blow, and
// over a batched Apply, whose outer pulls ask for at most the cap, so
// an outer row pulled ahead is not an inner execution run ahead.
func TestCursorStopsItsPlan(t *testing.T) {
	st := tpchStore(t)
	const read = 5
	cases := []struct {
		name, sql string
		budget    int64 // what 1+2+4 rows through the plan may charge
	}{
		{"scan", `select l_orderkey, l_quantity from lineitem`, 8},
		{"apply", `select o_orderkey from orders o
			where exists (select l_orderkey from lineitem l where l.l_orderkey = o.o_orderkey)`, 64},
	}
	for _, c := range cases {
		md, rel, out := compilePlan(t, st, c.sql, core.Options{KeepCorrelated: true})
		ctx := NewContext(st, md)
		ctx.ForceBatched = true
		ctx.RowBudget = c.budget
		ctx.EnableTrace()
		cu, err := RunCursor(ctx, rel, out)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < read; i++ {
			if _, ok, err := cu.Next(); err != nil || !ok {
				t.Fatalf("%s: row %d under RowBudget %d: ok=%v err=%v", c.name, i, c.budget, ok, err)
			}
		}
		if err := cu.Close(); err != nil {
			t.Fatal(err)
		}
		if got := ctx.shared.produced.Load(); got > c.budget {
			t.Errorf("%s: %d rows examined for %d read", c.name, got, read)
		}
		cu.Spans().Walk(func(s *obs.Span) {
			if s.Op == "Apply" && s.InnerExecs > 2*read {
				t.Errorf("%s: %d inner executions for %d rows read", c.name, s.InnerExecs, read)
			}
		})
	}
}

// TestCursorMatchesRun: a cursor is the same execution read a row at a
// time — every operator produces the same rows over the same number of
// opens as under Run, whatever caps the refills carried.
func TestCursorMatchesRun(t *testing.T) {
	st := tpchStore(t)
	md, rel, out := compilePlan(t, st, `select l_orderkey, o_totalprice from lineitem, orders
		where l_orderkey = o_orderkey and l_quantity > 40`, core.Options{})
	counts := func(ctx *Context) (s string) {
		ctx.Spans(rel).Walk(func(sp *obs.Span) { s += fmt.Sprintf("%s rows=%d opens=%d\n", sp.Op, sp.Rows, sp.Opens) })
		return s
	}
	rctx := NewContext(st, md)
	rctx.EnableTrace()
	want, err := Run(rctx, rel, out)
	if err != nil {
		t.Fatal(err)
	}
	cctx := NewContext(st, md)
	cctx.EnableTrace()
	cu, err := RunCursor(cctx, rel, out)
	if err != nil {
		t.Fatal(err)
	}
	defer cu.Close()
	for i := 0; ; i++ {
		row, ok, err := cu.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != len(want.Rows) {
				t.Fatalf("cursor delivered %d rows, Run %d", i, len(want.Rows))
			}
			break
		}
		if i >= len(want.Rows) || fmt.Sprint(row) != fmt.Sprint(want.Rows[i]) {
			t.Fatalf("row %d differs: cursor %v", i, row)
		}
	}
	if streamed, ran := counts(cctx), counts(rctx); streamed != ran {
		t.Errorf("per-operator counts differ\ncursor:\n%s\nrun:\n%s", streamed, ran)
	}
}
