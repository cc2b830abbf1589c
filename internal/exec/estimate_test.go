package exec

import (
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/sql/catalog"
	"orthoq/internal/sql/types"
	"orthoq/internal/stats"
	"orthoq/internal/storage"
)

// estimateFixture builds a store with one profiled table t(a, b):
// 300 rows, a cycling through 10 distinct values, b unique.
func estimateFixture(t *testing.T) (*Context, *algebra.Metadata, algebra.ColID, algebra.ColID) {
	t.Helper()
	st := storage.New(catalog.New())
	tbl, err := st.CreateTable(&catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "a", Type: types.Int},
			{Name: "b", Type: types.Int},
		},
		Key: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, 300)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i % 10)), types.NewInt(int64(i))}
	}
	if err := tbl.InsertAll(rows); err != nil {
		t.Fatal(err)
	}
	md := algebra.NewMetadata()
	a := md.AddTableColumn("t", "t", "a", types.Int, true, 0)
	b := md.AddTableColumn("t", "t", "b", types.Int, true, 1)
	ctx := &Context{Store: st, Md: md, Stats: stats.Collect(st)}
	return ctx, md, a, b
}

func get(a, b algebra.ColID) *algebra.Get {
	return &algebra.Get{Table: "t", Cols: []algebra.ColID{a, b}, KeyCols: algebra.NewColSet(b)}
}

func TestEstimateRowsGet(t *testing.T) {
	ctx, _, a, b := estimateFixture(t)
	if n := estimateRows(ctx, get(a, b)); n != 300 {
		t.Fatalf("Get estimate = %d, want 300", n)
	}
	if n := estimateRows(ctx, &algebra.Get{Table: "missing"}); n != 0 {
		t.Fatalf("unknown table estimate = %d, want 0", n)
	}
}

func TestEstimateRowsNilStats(t *testing.T) {
	ctx, _, a, b := estimateFixture(t)
	ctx.Stats = nil
	if n := estimateRows(ctx, get(a, b)); n != 0 {
		t.Fatalf("nil-stats estimate = %d, want 0 (no hint)", n)
	}
}

func TestEstimateRowsSelectProjectSort(t *testing.T) {
	ctx, _, a, b := estimateFixture(t)
	sel := &algebra.Select{Input: get(a, b), Filter: &algebra.Const{Val: types.NewBool(true)}}
	if n := estimateRows(ctx, sel); n != 100 {
		t.Fatalf("Select estimate = %d, want 300/3", n)
	}
	if n := estimateRows(ctx, &algebra.Project{Input: sel}); n != 100 {
		t.Fatalf("Project must pass through, got %d", n)
	}
	if n := estimateRows(ctx, &algebra.Sort{Input: sel}); n != 100 {
		t.Fatalf("Sort must pass through, got %d", n)
	}
}

func TestEstimateRowsJoin(t *testing.T) {
	ctx, _, a, b := estimateFixture(t)
	small := &algebra.Select{Input: get(a, b), Filter: &algebra.Const{Val: types.NewBool(true)}}
	j := &algebra.Join{Kind: algebra.InnerJoin, Left: small, Right: get(a, b)}
	if n := estimateRows(ctx, j); n != 300 {
		t.Fatalf("inner join estimate = %d, want max side 300", n)
	}
	semi := &algebra.Join{Kind: algebra.SemiJoin, Left: small, Right: get(a, b)}
	if n := estimateRows(ctx, semi); n != 100 {
		t.Fatalf("semijoin estimate = %d, want left side 100", n)
	}
	anti := &algebra.Join{Kind: algebra.AntiSemiJoin, Left: small, Right: get(a, b)}
	if n := estimateRows(ctx, anti); n != 100 {
		t.Fatalf("antijoin estimate = %d, want left side 100", n)
	}
}

func TestEstimateGroupsScalar(t *testing.T) {
	ctx, _, a, b := estimateFixture(t)
	gb := &algebra.GroupBy{Kind: algebra.ScalarGroupBy, Input: get(a, b)}
	if n := estimateRows(ctx, gb); n != 1 {
		t.Fatalf("scalar groupby estimate = %d, want 1", n)
	}
	// Scalar aggregation needs no statistics.
	ctx.Stats = nil
	if n := estimateGroups(ctx, gb, 0); n != 1 {
		t.Fatalf("scalar groupby without stats = %d, want 1", n)
	}
}

func TestEstimateGroupsDistinct(t *testing.T) {
	ctx, _, a, b := estimateFixture(t)
	gb := &algebra.GroupBy{Kind: algebra.VectorGroupBy, Input: get(a, b),
		GroupCols: algebra.NewColSet(a)}
	if n := estimateRows(ctx, gb); n != 10 {
		t.Fatalf("groupby a estimate = %d, want 10 distinct", n)
	}
	// Grouping on the unique column: distinct count capped by input rows.
	gb2 := &algebra.GroupBy{Kind: algebra.VectorGroupBy,
		Input:     &algebra.Select{Input: get(a, b), Filter: &algebra.Const{Val: types.NewBool(true)}},
		GroupCols: algebra.NewColSet(b)}
	if n := estimateRows(ctx, gb2); n != 100 {
		t.Fatalf("groupby b estimate = %d, want cap at input 100", n)
	}
}

func TestEstimateGroupsSyntheticColumn(t *testing.T) {
	ctx, md, a, b := estimateFixture(t)
	// A computed column has no base table and contributes no distinct
	// count; the estimate falls back to 1 group.
	c := md.AddColumn("expr", types.Int)
	gb := &algebra.GroupBy{Kind: algebra.VectorGroupBy, Input: get(a, b),
		GroupCols: algebra.NewColSet(c)}
	if n := estimateGroups(ctx, gb, 300); n != 1 {
		t.Fatalf("synthetic-column groupby estimate = %d, want 1", n)
	}
	_ = a
}
