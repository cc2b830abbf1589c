package exec

// Bit-exactness of the column-at-a-time aggregation path: float sums
// must come out with the same bits as the row-interpreted baseline,
// because every (group, aggregate) folds its rows in row order in both
// — serially, per worker partial after the §3.3 merge, and when a
// memory budget routes part of a batch to spill partitions.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/core"
	"orthoq/internal/sql/types"
	"orthoq/internal/storage"
	"orthoq/internal/tpch"
)

// bitKey renders a row with floats as their IEEE bit patterns.
func bitKey(row types.Row) string {
	parts := make([]string, len(row))
	for i, d := range row {
		if !d.IsNull() && d.Kind() == types.Float {
			parts[i] = fmt.Sprintf("f%016x", math.Float64bits(d.Float()))
		} else {
			parts[i] = d.String()
		}
	}
	return strings.Join(parts, "|")
}

func bitKeys(rows []types.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = bitKey(r)
	}
	sort.Strings(keys)
	return keys
}

func requireSameBits(t *testing.T, what string, got, want []types.Row) {
	t.Helper()
	g, w := bitKeys(got), bitKeys(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, want %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d differs bitwise\n got  %s\n want %s", what, i, g[i], w[i])
		}
	}
}

func tpchStore(t *testing.T) *storage.Store {
	t.Helper()
	st, err := tpch.Generate(0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// scanAgg is a GroupBy directly over a (possibly filtered) base-table
// scan: the shape a morsel worker aggregates.
type scanAgg struct {
	gb     *algebra.GroupBy
	get    *algebra.Get
	filter algebra.Scalar
}

func findScanAgg(rel algebra.Rel) (sa scanAgg, ok bool) {
	algebra.VisitRel(rel, func(n algebra.Rel) bool {
		gb, isGb := n.(*algebra.GroupBy)
		if !isGb || ok {
			return !ok
		}
		in := gb.Input
		var filter algebra.Scalar
		if sel, isSel := in.(*algebra.Select); isSel {
			in, filter = sel.Input, sel.Filter
		}
		if g, isGet := in.(*algebra.Get); isGet {
			sa, ok = scanAgg{gb: gb, get: g, filter: filter}, true
		}
		return !ok
	})
	return sa, ok
}

// mergedPartials aggregates the scan in four partitions — partition w
// takes the morsels a four-worker exchange would hand worker w in
// round-robin — each through the pull mode under test, and merges the
// partial tables in worker order with the §3.3 combiners.
func mergedPartials(t *testing.T, st *storage.Store, md *algebra.Metadata, sa scanAgg, disableBatch bool) []types.Row {
	t.Helper()
	ctx := NewContext(st, md)
	ctx.DisableBatch = disableBatch
	tbl, ok := ctx.table(sa.get.Table)
	if !ok {
		t.Fatalf("no table %s", sa.get.Table)
	}
	rows := tbl.AllRows()
	const workers = 4
	merged := newAggTable(sa.gb.GroupCols.Len(), len(sa.gb.Aggs), 0)
	for w := 0; w < workers; w++ {
		var part []types.Row
		for lo := w * morselSize; lo < len(rows); lo += workers * morselSize {
			part = append(part, rows[lo:min(lo+morselSize, len(rows))]...)
		}
		in := newNode(&sliceIter{rows: part}, sa.get.Cols)
		if sa.filter != nil {
			in = newNode(&filterIter{ctx: ctx, in: in, pred: sa.filter}, in.cols)
		}
		if err := in.it.Open(); err != nil {
			t.Fatal(err)
		}
		partial := newAggTable(sa.gb.GroupCols.Len(), len(sa.gb.Aggs), 0)
		var err error
		if av := newAggVec(ctx, in, sa.gb); av != nil {
			err = partial.consumeBatch(ctx, in, sa.gb, av)
		} else {
			err = partial.consume(ctx, in, sa.gb)
		}
		if err != nil {
			t.Fatal(err)
		}
		merged.merge(partial, sa.gb)
	}
	return merged.render(sa.gb, nil)
}

// TestVectorAggBitIdentical: Q1, Q6 and Q15 return bit-identical
// aggregates from the vector path and the row-interpreted baseline,
// under hash and under (sorted-input) streaming aggregation, and so do
// their scan aggregations computed as four per-worker partials and
// merged.
func TestVectorAggBitIdentical(t *testing.T) {
	st := tpchStore(t)
	for _, name := range []string{"Q1", "Q6", "Q15"} {
		md, rel, out := compilePlan(t, st, tpch.Queries[name], core.Options{})
		run := func(forceAgg string, disableBatch bool) []types.Row {
			ctx := NewContext(st, md)
			ctx.Agg = forceAgg
			ctx.DisableBatch = disableBatch
			res, err := Run(ctx, rel, out)
			if err != nil {
				t.Fatalf("%s (agg=%q disableBatch=%v): %v", name, forceAgg, disableBatch, err)
			}
			return res.Rows
		}
		for _, agg := range []string{"hash", "stream"} {
			vec, row := run(agg, false), run(agg, true)
			if len(row) == 0 {
				t.Fatalf("%s: empty result", name)
			}
			requireSameBits(t, name+" "+agg+" aggregation, vector vs row", vec, row)
		}

		sa, ok := findScanAgg(rel)
		if !ok {
			t.Fatalf("%s: no aggregation over a scan in\n%s", name, algebra.FormatRel(md, rel))
		}
		requireSameBits(t, name+" merged partials, vector vs row",
			mergedPartials(t, st, md, sa, false), mergedPartials(t, st, md, sa, true))
	}
}

// TestVectorAggSpillRouting: under a memory budget that fills the
// aggregation table part-way through a batch, the rows of unseen
// groups are routed to spill partitions and drop out of the batch the
// argument kernels and fold loops see. The result is bit-identical to
// the row path under the same budget and to the unbudgeted run.
func TestVectorAggSpillRouting(t *testing.T) {
	st := tpchStore(t)
	md, rel, out := compilePlan(t, st,
		`select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as rev,
		        avg(l_quantity) as q, min(l_shipdate) as d, count(*) as n
		 from lineitem where l_quantity > 2 group by l_orderkey`,
		core.Options{})
	run := func(budget int64, disableBatch bool) *Result {
		ctx := NewContext(st, md)
		ctx.Agg = "hash"
		ctx.MemBudget = budget
		ctx.SpillDir = t.TempDir()
		ctx.DisableBatch = disableBatch
		res, err := Run(ctx, rel, out)
		if err != nil {
			t.Fatalf("budget=%d disableBatch=%v: %v", budget, disableBatch, err)
		}
		return res
	}
	base := run(0, false)
	if base.Spills != 0 {
		t.Fatalf("unbudgeted run spilled %d files", base.Spills)
	}
	// About 1/8 of the groups fit: the first batch already crosses the
	// budget, so findRow starts routing rows in mid-batch.
	budget := int64(len(base.Rows)) * groupBytes(types.Row{types.NewInt(0)}, 4) / 8
	vec, row := run(budget, false), run(budget, true)
	if vec.Spills == 0 || row.Spills == 0 {
		t.Fatalf("budget %d did not spill (vector %d, row %d files)", budget, vec.Spills, row.Spills)
	}
	requireSameBits(t, "spilled vector vs spilled row", vec.Rows, row.Rows)
	requireSameBits(t, "spilled vector vs unbudgeted", vec.Rows, base.Rows)
}

// BenchmarkVecFold times the aggregation inner loop — group lookup,
// argument evaluation, fold — over 16 batches of a four-group input
// with Q1's discounted-price sum, an average and a count: the vector
// path (consumeBatch) against the row-interpreted one (consume).
func BenchmarkVecFold(b *testing.B) {
	const n = 16 * BatchSize
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.NewString(string(rune('A' + i%4))),
			types.NewFloat(900 + float64(i%100)),
			types.NewFloat(float64(i%10) / 100),
		}
	}
	cols := []algebra.ColID{1, 2, 3}
	col := func(c algebra.ColID) algebra.Scalar { return &algebra.ColRef{Col: c} }
	gb := &algebra.GroupBy{
		GroupCols: algebra.NewColSet(1),
		Aggs: []algebra.AggItem{
			{Col: 4, Func: algebra.AggSum, Arg: &algebra.Arith{Op: types.OpMul, L: col(2),
				R: &algebra.Arith{Op: types.OpSub, L: &algebra.Const{Val: types.NewInt(1)}, R: col(3)}}},
			{Col: 5, Func: algebra.AggAvg, Arg: col(3)},
			{Col: 6, Func: algebra.AggCountStar},
		},
	}
	for _, mode := range []struct {
		name         string
		disableBatch bool
	}{{"vector", false}, {"row", true}} {
		b.Run(mode.name, func(b *testing.B) {
			ctx := NewContext(nil, nil)
			ctx.DisableBatch = mode.disableBatch
			in := newNode(&sliceIter{rows: rows}, cols)
			av := newAggVec(ctx, in, gb)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := in.it.Open(); err != nil {
					b.Fatal(err)
				}
				tbl := newAggTable(1, len(gb.Aggs), 0)
				var err error
				if av != nil {
					err = tbl.consumeBatch(ctx, in, gb, av)
				} else {
					err = tbl.consume(ctx, in, gb)
				}
				if err != nil || len(tbl.keys) != 4 {
					b.Fatalf("groups=%d err=%v", len(tbl.keys), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
		})
	}
}
