package reference

import (
	"os/exec"
	"strings"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/sql/catalog"
	"orthoq/internal/sql/types"
	"orthoq/internal/storage"
)

// TestImportsOnlyWhatItInterprets holds the oracle's independence: of
// this module, it may depend (transitively) on the algebra, the value
// domain, the catalog and storage — and on nothing that evaluates,
// executes, normalizes or optimizes.
func TestImportsOnlyWhatItInterprets(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "orthoq/internal/reference").Output()
	if err != nil {
		t.Skipf("go list: %v", err)
	}
	allowed := map[string]bool{
		"orthoq/internal/reference": true, "orthoq/internal/algebra": true,
		"orthoq/internal/sql/types": true, "orthoq/internal/sql/catalog": true,
		"orthoq/internal/storage": true,
	}
	for _, dep := range strings.Fields(string(out)) {
		if strings.HasPrefix(dep, "orthoq") && !allowed[dep] {
			t.Errorf("internal/reference depends on %s", dep)
		}
	}
}

// fixture: r(a, b) = {(1,10), (2,NULL), (3,30)} keyed on a, and
// s(k, c) = {(1,1), (2,1), (3,NULL)} keyed on k.
func fixture(t *testing.T) (*Evaluator, *algebra.Get, *algebra.Get) {
	t.Helper()
	cat := catalog.New()
	st := storage.New(cat)
	mk := func(name string, cols []string, rows ...types.Row) {
		tbl := &catalog.Table{Name: name, Key: []int{0}}
		for _, c := range cols {
			tbl.Columns = append(tbl.Columns, catalog.Column{Name: c, Type: types.Int, Nullable: true})
		}
		stored, err := st.CreateTable(tbl)
		if err != nil {
			t.Fatal(err)
		}
		if err := stored.InsertAll(rows); err != nil {
			t.Fatal(err)
		}
	}
	i, null := types.NewInt, types.Null(types.Int)
	mk("r", []string{"a", "b"}, types.Row{i(1), i(10)}, types.Row{i(2), null}, types.Row{i(3), i(30)})
	mk("s", []string{"k", "c"}, types.Row{i(1), i(1)}, types.Row{i(2), i(1)}, types.Row{i(3), null})
	return &Evaluator{Store: st},
		&algebra.Get{Table: "r", Cols: []algebra.ColID{1, 2}},
		&algebra.Get{Table: "s", Cols: []algebra.ColID{4, 3}}
}

func col(c algebra.ColID) algebra.Scalar { return &algebra.ColRef{Col: c} }
func eq(l, r algebra.Scalar) algebra.Scalar {
	return &algebra.Cmp{Op: algebra.CmpEq, L: l, R: r}
}

func render(rows []types.Row) string {
	var parts []string
	for _, row := range rows {
		var vals []string
		for _, d := range row {
			vals = append(vals, d.String())
		}
		parts = append(parts, strings.Join(vals, ","))
	}
	return strings.Join(parts, " ")
}

func expect(t *testing.T, e *Evaluator, rel algebra.Rel, cols []algebra.ColID, want string) {
	t.Helper()
	rows, err := e.Eval(rel, cols)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(rows); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

// TestJoinKinds: one predicate, every join kind, as a Join (hash-map
// candidates) and as an Apply whose right side filters on the left row
// (per-row evaluation) — the two must mean the same.
func TestJoinKinds(t *testing.T) {
	e, r, s := fixture(t)
	want := map[algebra.JoinKind]string{
		algebra.InnerJoin:     "1,10,1 1,10,1",
		algebra.LeftOuterJoin: "1,10,1 1,10,1 2,NULL,NULL 3,30,NULL",
		algebra.SemiJoin:      "1,10",
		algebra.AntiSemiJoin:  "2,NULL 3,30",
	}
	for kind, w := range want {
		out := []algebra.ColID{1, 2}
		if kind.ReturnsRightCols() {
			out = append(out, 3)
		}
		expect(t, e, &algebra.Join{Kind: kind, Left: r, Right: s, On: eq(col(1), col(3))}, out, w)
		correlated := &algebra.Select{Input: s, Filter: eq(col(1), col(3))}
		expect(t, e, &algebra.Apply{Kind: kind, Left: r, Right: correlated}, out, w)
	}
}

// TestSubqueryScalars: the mutually recursive half — scalars that
// evaluate a relational input for the row at hand, with SQL's NULL
// rules (NOT IN over a set holding NULL is never TRUE; a scalar
// subquery over no rows is NULL, over two rows an error).
func TestSubqueryScalars(t *testing.T) {
	e, r, s := fixture(t)
	matching := &algebra.Select{Input: s, Filter: eq(col(3), col(1))}
	sel := func(f algebra.Scalar) algebra.Rel { return &algebra.Select{Input: r, Filter: f} }
	a := []algebra.ColID{1}

	expect(t, e, sel(&algebra.Exists{Input: matching}), a, "1")
	expect(t, e, sel(&algebra.Exists{Input: matching, Negate: true}), a, "2 3")
	expect(t, e, sel(&algebra.Quantified{Op: algebra.CmpEq, Arg: col(1), Input: s, Col: 3}), a, "1")
	expect(t, e, sel(&algebra.Quantified{Op: algebra.CmpNe, All: true, Arg: col(1), Input: s, Col: 3}), a, "")
	// k = a+1 finds (2,1) for a=1, (3,NULL) for a=2 and nothing for a=3.
	next := &algebra.Select{Input: s, Filter: eq(col(4),
		&algebra.Arith{Op: types.OpAdd, L: col(1), R: &algebra.Const{Val: types.NewInt(1)}})}
	expect(t, e, sel(&algebra.IsNull{Arg: &algebra.Subquery{Input: next, Col: 3}}), a, "2 3")

	if _, err := e.Eval(sel(eq(col(1), &algebra.Subquery{Input: matching, Col: 3})), a); err == nil ||
		!strings.Contains(err.Error(), "more than one row") {
		t.Errorf("two-row scalar subquery: err = %v", err)
	}
	// The same subquery behind a guard that is false for the offending
	// row is never evaluated for it.
	guarded := &algebra.And{Args: []algebra.Scalar{
		&algebra.Cmp{Op: algebra.CmpGt, L: col(1), R: &algebra.Const{Val: types.NewInt(1)}},
		&algebra.IsNull{Arg: &algebra.Subquery{Input: matching, Col: 3}}}}
	expect(t, e, sel(guarded), a, "2 3")
}

// TestAggregatesAndOrder: aggregates ignore NULLs, scalar aggregation
// of nothing is one row, and sorting puts NULL first.
func TestAggregatesAndOrder(t *testing.T) {
	e, r, _ := fixture(t)
	aggs := []algebra.AggItem{
		{Col: 10, Func: algebra.AggCountStar}, {Col: 11, Func: algebra.AggCount, Arg: col(2)},
		{Col: 12, Func: algebra.AggSum, Arg: col(2)}, {Col: 13, Func: algebra.AggAvg, Arg: col(2)},
		{Col: 14, Func: algebra.AggMax, Arg: col(2)}}
	out := []algebra.ColID{10, 11, 12, 13, 14}
	expect(t, e, &algebra.GroupBy{Kind: algebra.ScalarGroupBy, Input: r, Aggs: aggs}, out, "3,2,40,20,30")
	none := &algebra.Select{Input: r, Filter: eq(col(1), &algebra.Const{Val: types.NewInt(99)})}
	expect(t, e, &algebra.GroupBy{Kind: algebra.ScalarGroupBy, Input: none, Aggs: aggs}, out, "0,0,NULL,NULL,NULL")
	expect(t, e, &algebra.GroupBy{Kind: algebra.VectorGroupBy, Input: none, GroupCols: algebra.NewColSet(1), Aggs: aggs}, out, "")

	by := []algebra.Ordering{{Col: 2, Desc: true}}
	expect(t, e, &algebra.Top{N: 2, Input: &algebra.Sort{Input: r, By: by}}, []algebra.ColID{1}, "3 1")
	expect(t, e, &algebra.Sort{Input: r, By: []algebra.Ordering{{Col: 2}}}, []algebra.ColID{1}, "2 1 3")
}

func TestLike(t *testing.T) {
	for _, c := range []struct {
		s, p string
		want bool
	}{
		{"", "", true}, {"", "%", true}, {"a", "", false}, {"abc", "a%c", true},
		{"abc", "a_c", true}, {"ac", "a_c", false}, {"special requests", "%special%requests%", true},
		{"abc", "%b", false}, {"aXbXc", "a%b%c", true}, {"abc", "abc%", true},
	} {
		if got := like(c.s, c.p); got != c.want {
			t.Errorf("like(%q, %q) = %v", c.s, c.p, got)
		}
	}
}
