package exec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/core"
	"orthoq/internal/sql/catalog"
	"orthoq/internal/sql/types"
	"orthoq/internal/storage"
)

// probeStore builds the outer table lt and one inner table per index
// declaration of probeIndexes, over small domains (so bindings repeat)
// with NULLs, NaN, -0, Int values in the Float column and a zero
// divisor r_w, and inserts rows into each inner table after its
// indexes were built, past their coverage.
func probeStore(t *testing.T) *storage.Store {
	t.Helper()
	st := storage.New(catalog.New())
	r := rand.New(rand.NewSource(33))
	orNull := func(d types.Datum) types.Datum {
		if r.Intn(7) == 0 {
			return types.Null(d.Kind())
		}
		return d
	}
	float := func() types.Datum {
		switch r.Intn(8) {
		case 0:
			return types.NewFloat(math.NaN())
		case 1:
			return types.NewFloat(math.Copysign(0, -1))
		case 2:
			return types.NewFloat(float64(r.Intn(8)) / 2)
		case 3:
			// A Float column may hold Int values: a window holding both
			// is read as a vector of mixed kinds.
			return types.NewInt(int64(r.Intn(5)))
		}
		return orNull(types.NewFloat(float64(r.Intn(5))))
	}
	row := func(id int) types.Row {
		return types.Row{types.NewInt(int64(id)), orNull(types.NewInt(int64(r.Intn(5)))), float(),
			orNull(types.NewString(string(rune('a' + r.Intn(4))))), orNull(types.NewDate(int64(9000 + r.Intn(4)))),
			types.NewInt(int64(r.Intn(3)))}
	}
	cols := func(p string) []catalog.Column {
		return []catalog.Column{{Name: p + "_id", Type: types.Int}, {Name: p + "_i", Type: types.Int, Nullable: true},
			{Name: p + "_f", Type: types.Float, Nullable: true}, {Name: p + "_s", Type: types.String, Nullable: true},
			{Name: p + "_d", Type: types.Date, Nullable: true}, {Name: p + "_w", Type: types.Int}}
	}
	load := func(schema *catalog.Table, n, late int) {
		tbl, err := st.CreateTable(schema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n+late; i++ {
			if i == n {
				tbl.BuildIndexes()
			}
			if err := tbl.Insert(row(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	load(&catalog.Table{Name: "lt", Columns: cols("l"), Key: []int{0}}, 40, 0)
	for name, idx := range probeIndexes {
		load(&catalog.Table{Name: name, Columns: cols("r"), Key: []int{0}, Indexes: []catalog.Index{idx}}, 60, 6)
	}
	return st
}

// probeIndexes is the index each inner table of probeStore declares
// (columns: 1 r_i Int, 2 r_f Float, 3 r_s String, 4 r_d Date).
var probeIndexes = map[string]catalog.Index{
	"r_ih": {Name: "r_ih_x", Cols: []int{1}},
	"r_io": {Name: "r_io_x", Cols: []int{1}, Ordered: true},
	"r_fh": {Name: "r_fh_x", Cols: []int{2}},
	"r_fo": {Name: "r_fo_x", Cols: []int{2}, Ordered: true},
	"r_sh": {Name: "r_sh_x", Cols: []int{3}},
	"r_do": {Name: "r_do_x", Cols: []int{4}, Ordered: true},
	"r_is": {Name: "r_is_x", Cols: []int{1, 3}, Ordered: true},
	"r_sd": {Name: "r_sd_x", Cols: []int{3, 4}},
}

// runCapped runs rel under an Apply strategy ("" is the selector's),
// a row cap per pull and a RowBudget, and returns each batch rendered,
// the rows charged, the strategy the Apply ran under and the error that
// ended the run.
func runCapped(t *testing.T, st *storage.Store, md *algebra.Metadata, ap *algebra.Apply, strategy string, limit int, budget int64) (batches []string, charged int64, ran string, err error) {
	t.Helper()
	ctx := NewContext(st, md)
	ctx.ForceBatched, ctx.RowBudget = strategy == "batched", budget
	ctx.EnableTrace()
	n, _, err := prepareRun(ctx, ap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err = n.it.Open(); err == nil {
		for {
			b := Batch{Limit: limit}
			if err = n.it.NextBatch(&b); err != nil || b.Len() == 0 {
				break
			}
			rows := make([]types.Row, b.Len())
			for i := range rows {
				rows[i] = b.Row(i)
			}
			batches = append(batches, renderRows(rows))
		}
	}
	if cerr := n.it.Close(); err == nil {
		err = cerr
	}
	return batches, ctx.shared.produced.Load(), ctx.trace[ap].Strategy, err
}

// TestApplyProbeMatchesBatched holds the index-lookup probe to the
// batched Apply, batch by batch: the same rows in the same order and
// the same error after the same rows. It covers hash and ordered
// indexes, single-column and composite (a prefix seek and a full one),
// over Int, Float, String and Date keys with NULL, NaN and -0
// bindings, repeated bindings, an Int binding into a Float index and a
// Float binding into an Int index (the typed lookups' fallbacks), and
// rows past the index's coverage; Inner, LeftOuter, Semi and Anti
// Applies with an On that divides by zero on some pairs; and row caps
// 1, 3 and 1024. Under RowBudgets that run out mid-run, each path
// either returns its unbudgeted answer or ErrRowBudget, never another
// answer.
func TestApplyProbeMatchesBatched(t *testing.T) {
	st := probeStore(t)
	seeks := []struct{ table, pred string }{
		{"r_ih", "r.r_i = l.l_i"},
		{"r_ih", "r.r_i = l.l_f"},
		{"r_io", "r.r_i = l.l_i"},
		{"r_io", "r.r_i = l.l_f"},
		{"r_fh", "r.r_f = l.l_f"},
		{"r_fh", "r.r_f = l.l_i"},
		{"r_fo", "r.r_f = l.l_f"},
		{"r_fo", "r.r_f = l.l_i"},
		{"r_sh", "r.r_s = l.l_s"},
		{"r_do", "r.r_d = l.l_d"},
		{"r_is", "r.r_i = l.l_i"},
		{"r_is", "r.r_i = l.l_i and r.r_s = l.l_s"},
		{"r_sd", "r.r_s = l.l_s and r.r_d = l.l_d"},
	}
	kinds := []algebra.JoinKind{algebra.InnerJoin, algebra.LeftOuterJoin, algebra.SemiJoin, algebra.AntiSemiJoin}
	r := rand.New(rand.NewSource(7))
	const unlimited = 1 << 40 // counts the rows charged, never runs out
	runs, outcomes := 0, map[string]int{}
	for _, s := range seeks {
		md, rel, _ := compilePlan(t, st, fmt.Sprintf(`select l.l_id from lt l where exists
			(select r.r_id from %s r where %s and r.r_w < 5)`, s.table, s.pred), core.Options{KeepCorrelated: true})
		var seed *algebra.Apply
		algebra.VisitRel(rel, func(n algebra.Rel) bool {
			if a, ok := n.(*algebra.Apply); ok && seed == nil {
				seed = a
			}
			return true
		})
		if seed == nil {
			t.Fatalf("%s: no Apply in\n%s", s.pred, algebra.FormatRel(md, rel))
		}
		inner := seed.Right
		if p, ok := inner.(*algebra.Project); ok {
			inner = p.Input
		}
		col := func(rel algebra.Rel, name string) algebra.Scalar {
			for _, c := range algebra.OutputCols(rel).Ordered() {
				if md.Alias(c) == name {
					return &algebra.ColRef{Col: c}
				}
			}
			t.Fatalf("no column %s", name)
			return nil
		}
		// 3 / r_w divides by zero where r_w is 0.
		on := &algebra.Cmp{Op: algebra.CmpGt, L: &algebra.Arith{Op: types.OpDiv, L: &algebra.Const{Val: types.NewInt(3)},
			R: col(inner, "r_w")}, R: col(seed.Left, "l_w")}
		for _, kind := range kinds {
			for _, on := range []algebra.Scalar{nil, on} {
				ap := &algebra.Apply{Kind: kind, Left: seed.Left, Right: inner, On: on}
				label := fmt.Sprintf("%s %s on=%v", strings.ReplaceAll(s.pred, " ", ""), kind, on != nil)
				_, total, ran, _ := runCapped(t, st, md, ap, "", 0, unlimited)
				if ran != "probe" {
					t.Fatalf("%s: the selector ran %q, want probe\n%s", label, ran, algebra.FormatRel(md, ap))
				}
				for _, limit := range []int{1, 3, 1024} {
					name := fmt.Sprintf("%s limit %d", label, limit)
					want, _, ran, wantErr := runCapped(t, st, md, ap, "batched", limit, unlimited)
					if ran != "batched" {
						t.Fatalf("%s: forced batched ran %q", name, ran)
					}
					got, _, _, err := runCapped(t, st, md, ap, "", limit, unlimited)
					runs++
					if errText(err) != errText(wantErr) {
						t.Fatalf("%s: error %q, batched %q", name, errText(err), errText(wantErr))
					}
					if strings.Join(got, "\n") != strings.Join(want, "\n") {
						t.Fatalf("%s:\n got  %v\n want %v", name, got, want)
					}
					for _, budget := range []int64{1 + r.Int63n(total), total - 1} {
						for _, strategy := range []string{"", "batched"} {
							runs++
							got, _, _, err := runCapped(t, st, md, ap, strategy, limit, budget)
							switch msg := errText(err); {
							case errors.Is(err, ErrRowBudget):
								outcomes["out of budget"]++
								continue
							case err == nil:
								outcomes["answered"]++
							case strings.Contains(msg, "division by zero"):
								outcomes["divided by zero"]++
							}
							if errText(err) != errText(wantErr) || strings.Join(got, "\n") != strings.Join(want, "\n") {
								t.Fatalf("%s strategy %q budget %d: a different answer than unbudgeted, error %q\n got  %v\n want %v",
									name, strategy, budget, errText(err), got, want)
							}
						}
					}
				}
			}
		}
	}
	if len(outcomes) != 3 {
		t.Fatalf("%d runs, outcomes %v: want runs that answer, run out of budget and divide by zero", runs, outcomes)
	}
	t.Logf("%d runs, outcomes %v", runs, outcomes)
}
