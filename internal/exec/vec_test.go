package exec

// Bit-exactness of the column-at-a-time aggregation path: float sums
// must come out with the same bits as a direct fold — one row at a
// time, in row order, through the interpreter — because every (group,
// aggregate) folds its rows in row order in both: serially, in each
// worker's LocalGroupBy and the global GroupBy over the partials of the
// §3.3 split, and when a memory budget routes part of a batch to spill
// partitions.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/core"
	"orthoq/internal/eval"
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

// colEnv binds one row of a fixed layout for the interpreter.
type colEnv struct {
	cols []algebra.ColID
	row  types.Row
}

func (e *colEnv) Value(c algebra.ColID) (types.Datum, bool) {
	for i, id := range e.cols {
		if id == c {
			return e.row[i], true
		}
	}
	return types.NullUnknown, false
}

// folded is a direct fold's result: groups in first-appearance order.
type folded struct {
	keys   []types.Row
	states []aggState // [aggregate], indexed by group
	index  map[string]int
}

func (f *folded) group(key types.Row, gb *algebra.GroupBy) int {
	k := bitKey(key)
	g, ok := f.index[k]
	if !ok {
		if f.index == nil {
			f.index = map[string]int{}
			f.states = newAggStates(gb.Aggs)
		}
		g = len(f.keys)
		f.index[k] = g
		f.keys = append(f.keys, key)
		for j := range f.states {
			f.states[j].fit(g, g+1)
		}
	}
	return g
}

func (f *folded) render(gb *algebra.GroupBy) []types.Row {
	if len(f.keys) == 0 && gb.Kind == algebra.ScalarGroupBy {
		return []types.Row{emptyAggRow(gb)}
	}
	var out []types.Row
	for g, key := range f.keys {
		row := append(types.Row(nil), key...)
		for j := range f.states {
			row = append(row, f.states[j].result(g))
		}
		out = append(out, row)
	}
	return out
}

// directFold is the definition the vector path's bits are held to: the
// rows passing the filter, one at a time in row order, each aggregate
// argument evaluated by the interpreter and handed to aggState.add.
func directFold(t *testing.T, sa scanAgg, rows []types.Row) *folded {
	t.Helper()
	ev := &eval.Evaluator{}
	env := &colEnv{cols: sa.get.Cols}
	groupCols := sa.gb.GroupCols.Ordered()
	f := &folded{}
	for _, row := range rows {
		env.row = row
		if sa.filter != nil {
			v, err := ev.EvalBool(sa.filter, env)
			if err != nil {
				t.Fatal(err)
			}
			if v != types.TriTrue {
				continue
			}
		}
		key := make(types.Row, len(groupCols))
		for i, c := range groupCols {
			key[i], _ = env.Value(c)
		}
		g := f.group(key, sa.gb)
		for j := range sa.gb.Aggs {
			item := &sa.gb.Aggs[j]
			var d types.Datum
			if item.Arg != nil {
				var err error
				if d, err = ev.Eval(item.Arg, env); err != nil {
					t.Fatal(err)
				}
			}
			f.states[j].add(g, d)
		}
	}
	return f
}

// workerPartition is the rows a four-worker exchange would hand worker
// w in round-robin morsels.
func workerPartition(rows []types.Row, w, workers int) []types.Row {
	var part []types.Row
	for lo := w * morselSize; lo < len(rows); lo += workers * morselSize {
		part = append(part, rows[lo:min(lo+morselSize, len(rows))]...)
	}
	return part
}

// gbCols is the column layout a GroupBy's iterator produces: the
// grouping columns, then the aggregates.
func gbCols(gb *algebra.GroupBy) []algebra.ColID {
	cols := append([]algebra.ColID(nil), gb.GroupCols.Ordered()...)
	for _, a := range gb.Aggs {
		cols = append(cols, a.Col)
	}
	return cols
}

// splitOf is the §3.3 split of sa's GroupBy, with its LocalGroupBy and
// its global GroupBy.
func splitOf(t *testing.T, md *algebra.Metadata, sa scanAgg) (split algebra.Rel, local, global *algebra.GroupBy) {
	t.Helper()
	split, ok := core.TrySplitGroupBy(md, sa.gb)
	if !ok {
		t.Fatalf("split refused:\n%s", algebra.FormatRel(md, sa.gb))
	}
	algebra.VisitRel(split, func(n algebra.Rel) bool {
		if gb, ok := n.(*algebra.GroupBy); ok {
			if gb.Kind == algebra.LocalGroupBy {
				local = gb
			} else {
				global = gb
			}
		}
		return true
	})
	return split, local, global
}

// splitPartials runs the split of sa's GroupBy as a four-worker
// exchange runs it: the executor's LocalGroupBy over each worker's
// partition, then the split's global GroupBy (and the project that
// recombines an avg) over the partials in worker order.
func splitPartials(t *testing.T, st *storage.Store, md *algebra.Metadata, sa scanAgg, rows []types.Row) []types.Row {
	t.Helper()
	split, local, global := splitOf(t, md, sa)
	ctx := NewContext(st, md)
	const workers = 4
	partials := &algebra.Values{Cols: gbCols(local)}
	for w := 0; w < workers; w++ {
		in := newNode(&sliceIter{rows: workerPartition(rows, w, workers)}, sa.get.Cols)
		if sa.filter != nil {
			in = newNode(&filterIter{in: in, filt: newFilterPred(ctx, sa.filter, in.ords)}, in.cols)
		}
		h := &hashAggIter{ctx: ctx, in: in, gb: local, cols: partials.Cols}
		if err := h.Open(); err != nil {
			t.Fatal(err)
		}
		for _, row := range h.out {
			vr := make(algebra.ValuesRow, len(row))
			for i, d := range row {
				vr[i] = &algebra.Const{Val: d}
			}
			partials.Rows = append(partials.Rows, vr)
		}
	}
	global.Input = partials // the split is this call's own
	res, err := Run(NewContext(st, md), split, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

// splitDirectFolds is splitPartials with each partition and then the
// partials folded directly, and the project evaluated by the
// interpreter.
func splitDirectFolds(t *testing.T, md *algebra.Metadata, sa scanAgg, rows []types.Row) []types.Row {
	t.Helper()
	split, local, global := splitOf(t, md, sa)
	const workers = 4
	var partials []types.Row
	for w := 0; w < workers; w++ {
		part := directFold(t, scanAgg{gb: local, get: sa.get, filter: sa.filter}, workerPartition(rows, w, workers))
		partials = append(partials, part.render(local)...)
	}
	out := directFold(t, scanAgg{gb: global, get: &algebra.Get{Cols: gbCols(local)}}, partials).render(global)
	proj, ok := split.(*algebra.Project)
	if !ok {
		return out
	}
	ev := &eval.Evaluator{}
	env := &colEnv{cols: gbCols(global)}
	for i, row := range out {
		env.row = row
		var pr types.Row
		for _, c := range proj.Passthrough.Ordered() {
			d, _ := env.Value(c)
			pr = append(pr, d)
		}
		for _, it := range proj.Items {
			d, err := ev.Eval(it.Expr, env)
			if err != nil {
				t.Fatal(err)
			}
			pr = append(pr, d)
		}
		out[i] = pr
	}
	return out
}

// TestVectorAggBitIdentical: the scan aggregations of Q1, Q6 and Q15
// return, as planned (hash aggregation for the grouped ones) and over
// input sorted on the group columns (streaming aggregation), aggregates
// bit-identical to a direct fold of the table in row order — and their
// §3.3 splits, run over four worker partitions, return aggregates
// bit-identical to direct folds of the partitions and then of the
// partials.
func TestVectorAggBitIdentical(t *testing.T) {
	st := tpchStore(t)
	for _, name := range []string{"Q1", "Q6", "Q15"} {
		md, rel, _ := compilePlan(t, st, tpch.Queries[name], core.Options{})
		sa, ok := findScanAgg(rel)
		if !ok {
			t.Fatalf("%s: no aggregation over a scan in\n%s", name, algebra.FormatRel(md, rel))
		}
		tbl, ok := NewContext(st, md).table(sa.get.Table)
		if !ok {
			t.Fatalf("no table %s", sa.get.Table)
		}
		rows := tbl.AllRows()
		want := directFold(t, sa, rows).render(sa.gb)
		if len(want) == 0 {
			t.Fatalf("%s: empty result", name)
		}
		for agg, plan := range map[string]algebra.Rel{"planned": sa.gb, "sorted-input": sortedGroupInputs(sa.gb)} {
			res, err := Run(NewContext(st, md), plan, nil)
			if err != nil {
				t.Fatalf("%s (%s): %v", name, agg, err)
			}
			requireSameBits(t, name+" "+agg+" aggregation vs direct fold", res.Rows, want)
		}
		requireSameBits(t, name+" split over four workers vs its direct folds",
			splitPartials(t, st, md, sa, rows), splitDirectFolds(t, md, sa, rows))
	}
}

// TestVectorAggSpillRouting: under a memory budget that fills the
// aggregation table part-way through a batch, the rows of unseen
// groups are routed to spill partitions and drop out of the batch the
// argument kernels and fold loops see, and the partitions are folded
// later in windows of decoded rows. Every group still sees its rows in
// row order, so the result is bit-identical to the unbudgeted run.
func TestVectorAggSpillRouting(t *testing.T) {
	st := tpchStore(t)
	md, rel, out := compilePlan(t, st,
		`select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as rev,
		        avg(l_quantity) as q, min(l_shipdate) as d, count(*) as n
		 from lineitem where l_quantity > 2 group by l_orderkey`,
		core.Options{})
	run := func(budget int64) *Result {
		ctx := NewContext(st, md)
		ctx.MemBudget = budget
		ctx.SpillDir = t.TempDir()
		res, err := Run(ctx, rel, out)
		if err != nil {
			t.Fatalf("budget=%d: %v", budget, err)
		}
		return res
	}
	base := run(0)
	if base.Spills != 0 {
		t.Fatalf("unbudgeted run spilled %d files", base.Spills)
	}
	// About 1/8 of the groups fit: the first batch already crosses the
	// budget, so findRow starts routing rows in mid-batch.
	sa, ok := findScanAgg(rel)
	if !ok {
		t.Fatalf("no aggregation over a scan in\n%s", algebra.FormatRel(md, rel))
	}
	budget := int64(len(base.Rows)) * groupBytes(types.Row{types.NewInt(0)}, newAggStates(sa.gb.Aggs)) / 8
	spilled := run(budget)
	if spilled.Spills == 0 {
		t.Fatalf("budget %d did not spill", budget)
	}
	requireSameBits(t, "spilled vs unbudgeted", spilled.Rows, base.Rows)
}

// BenchmarkVecFold times the aggregation inner loop — group lookup,
// argument evaluation, fold — over 16 batches of a four-group input
// with Q1's discounted-price sum, an average and a count.
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
	ctx := NewContext(nil, nil)
	in := newNode(&sliceIter{rows: rows}, cols)
	av := newAggVec(ctx, in.ords, gb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := in.it.Open(); err != nil {
			b.Fatal(err)
		}
		tbl := newAggTable(1, gb.Aggs, 0)
		if err := tbl.consume(ctx, in, gb, av); err != nil || tbl.ht.len() != 4 {
			b.Fatalf("groups=%d err=%v", tbl.ht.len(), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
}
