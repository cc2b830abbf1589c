package exec

// Unit tests for selection-vector semantics and the batch/row duality:
// filterPred narrowing (including NULL predicates and conjunct
// short-circuit), the row→batch adapter, and end-to-end filter →
// project → aggregate chains with NULLs compared across both pull
// modes.

import (
	"fmt"
	"strings"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/algebrize"
	"orthoq/internal/core"
	"orthoq/internal/sql/parser"
	"orthoq/internal/sql/types"
	"orthoq/internal/storage"
)

// runSQLMode is runSQL with an explicit pull mode.
func runSQLMode(t testing.TB, st *storage.Store, sql string, opts core.Options, disableBatch bool) *Result {
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
	rel, err := core.Normalize(md, res.Rel, opts)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	ctx := NewContext(st, md)
	ctx.RowBudget = 10_000_000
	ctx.DisableBatch = disableBatch
	out, err := Run(ctx, rel, res.OutCols)
	if err != nil {
		t.Fatalf("run (disableBatch=%v): %v\nplan:\n%s", disableBatch, err, algebra.FormatRel(md, rel))
	}
	return out
}

// expectBothModes runs sql in batch and row mode and checks both
// against want.
func expectBothModes(t *testing.T, st *storage.Store, sql string, want ...string) {
	t.Helper()
	for _, disable := range []bool{false, true} {
		r := runSQLMode(t, st, sql, core.Options{}, disable)
		got := resultKey(r)
		w := append([]string(nil), want...)
		if fmt.Sprint(got) != fmt.Sprint(sortedCopy(w)) {
			t.Fatalf("disableBatch=%v: rows = %v, want %v\nsql: %s", disable, got, w, sql)
		}
	}
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// narrowAll filters rows with pred through a filterPred over a
// two-column layout: col 1 → ordinal 0, col 2 → ordinal 1.
func narrowAll(pred algebra.Scalar, rows []types.Row) ([]int, error) {
	var p filterPred
	p.open(NewContext(nil, nil), pred, map[algebra.ColID]int{1: 0, 2: 1})
	return p.narrow(rows, nil)
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

// sliceIter is a row-only iterator (no NextBatch) for adapter tests.
type sliceIter struct {
	rows []types.Row
	pos  int
}

func (s *sliceIter) Open() error { s.pos = 0; return nil }
func (s *sliceIter) Next() (types.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	s.pos++
	return s.rows[s.pos-1], true, nil
}
func (s *sliceIter) Close() error { return nil }

// TestRowToBatchAdapter: nextBatch over a row-only iterator fills
// windows of at most BatchSize rows and signals end of stream with an
// empty batch.
func TestRowToBatchAdapter(t *testing.T) {
	n := BatchSize + 37
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = intRow(i, i)
	}
	it := &sliceIter{rows: rows}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	var b Batch
	var got int
	for {
		if err := nextBatch(it, &b); err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 {
			break
		}
		if b.Len() > BatchSize {
			t.Fatalf("batch of %d exceeds BatchSize", b.Len())
		}
		for i := 0; i < b.Len(); i++ {
			if v := b.Row(i)[0].Int(); v != int64(got) {
				t.Fatalf("row %d = %d, want %d", got, v, got)
			}
			got++
		}
	}
	if got != n {
		t.Fatalf("adapter yielded %d rows, want %d", got, n)
	}
}

// TestBatchFilterProjectAggWithNulls: filter → project → aggregate
// chains where NULLs flow through every stage, checked in both pull
// modes. NULLs come from outer-join padding and scalar subqueries
// over empty sets, so they exercise the compiled evaluators' tri-state
// logic rather than storage-level NULLs alone.
func TestBatchFilterProjectAggWithNulls(t *testing.T) {
	st := testDB(t)

	// Outer-join padding: dave (custkey 4) has no orders, so o_totalprice
	// is NULL for him; the filter keeps rows where the padded comparison
	// is TRUE (NULL comparisons drop the row), the projection doubles a
	// possibly-NULL value, the aggregate skips NULLs but counts rows.
	expectBothModes(t, st, `
		select c_custkey, sum(o_totalprice * 2) as s, count(*) as n
		from customer left outer join orders on o_custkey = c_custkey
		group by c_custkey`,
		"1|2400|2", "2|4000000|1", "3|200|1", "4|NULL|1")

	// Filter over a NULL-yielding CASE: only TRUE survives.
	expectBothModes(t, st, `
		select c_custkey from customer
		where case when c_acctbal > 150 then c_acctbal < 250 else null end`,
		"2")

	// Aggregate over a projected NULL-bearing expression: avg ignores
	// NULLs, count(expr) counts non-NULLs, count(*) counts all.
	expectBothModes(t, st, `
		select avg(case when c_acctbal > 0 then c_acctbal else null end) as a,
		       count(case when c_acctbal > 0 then c_acctbal else null end) as k,
		       count(*) as n
		from customer`,
		"200|3|4")

	// Group keys that are themselves NULL (scalar subquery over empty
	// set): NULL keys group together.
	expectBothModes(t, st, `
		select v, count(*) as n from (
			select (select max(o_totalprice) from orders
			        where o_custkey = c_custkey and o_totalprice > 1000) as v
			from customer) as t
		group by v`,
		"2000000|1", "NULL|3")
}

// TestBatchRowBudgetAborts: the budget is charged batch-wise but must
// still abort runaway plans in batch mode.
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
