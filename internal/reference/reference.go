// Package reference is the test oracle for the engine: a deliberately
// naive evaluator that gives any algebra.Rel its meaning by nested
// iteration. Scalar and relational evaluation are mutually recursive —
// a Subquery, Exists or Quantified scalar evaluates its relational
// input for the row at hand, and Apply evaluates its right side once
// per left row — which is the execution model the paper's rewrites
// remove (§2.1–2.2) and the semantic definition every decorrelation
// strategy is measured against.
//
// It shares no code with what it checks. It imports the algebra (the
// trees it interprets), the value domain (sql/types: datums, their
// order, hash, arithmetic and three-valued logic) and storage (the
// rows) — never internal/eval, internal/exec, internal/core or
// internal/opt; a test holds that line. Everything an executor would be
// clever about is absent on purpose: no indexes, batches, budgets,
// spilling or goroutines; a join is a nested loop with at most a hash
// map on the equality conjuncts of its predicate to find candidates
// (the whole predicate is still evaluated on every candidate pair);
// expressions go through the small interpreter in scalar.go, LIKE
// included. The two concessions to running time are that map and a
// memo of subtrees that reference nothing outside themselves, so an
// uncorrelated subquery is not re-evaluated per outer row.
package reference

import (
	"fmt"
	"sort"

	"orthoq/internal/algebra"
	"orthoq/internal/sql/types"
	"orthoq/internal/storage"
)

// Evaluator evaluates trees over the current contents of a store.
type Evaluator struct {
	Store *storage.Store
	// Params binds algebra.Param slots (plans compiled for the plan
	// cache); trees compiled as written have none.
	Params []types.Datum

	// memo holds the results of subtrees that reference nothing outside
	// themselves.
	memo map[algebra.Rel]*relation
	// segs holds the segments of the enclosing SegmentApply operators,
	// innermost last; a SegmentRef replays the innermost one.
	segs []*relation
}

// relation is a materialized bag of rows with a column layout.
type relation struct {
	cols []algebra.ColID
	ords map[algebra.ColID]int
	rows []types.Row
}

func newRelation(cols []algebra.ColID, rows []types.Row) *relation {
	r := &relation{cols: cols, ords: make(map[algebra.ColID]int, len(cols)), rows: rows}
	for i, c := range cols {
		r.ords[c] = i
	}
	return r
}

// ord is the position of a column the tree promises is there; a
// malformed tree panics, and Eval reports the panic as its error.
func (r *relation) ord(c algebra.ColID) int {
	o, ok := r.ords[c]
	if !ok {
		panic(fmt.Sprintf("column %d not produced (have %v)", c, r.cols))
	}
	return o
}

// project returns the rows narrowed and reordered to cols.
func (r *relation) project(cols []algebra.ColID) []types.Row {
	out := make([]types.Row, len(r.rows))
	for i, row := range r.rows {
		out[i] = make(types.Row, len(cols))
		for j, c := range cols {
			out[i][j] = row[r.ord(c)]
		}
	}
	return out
}

// scope binds one row's columns; parent is the row of the enclosing
// query block (what correlated column references resolve to).
type scope struct {
	rel    *relation
	row    types.Row
	parent *scope
}

// Eval evaluates rel and returns outCols of every result row, in result
// order (nil outCols = every output column, in the tree's layout order).
func (e *Evaluator) Eval(rel algebra.Rel, outCols []algebra.ColID) (rows []types.Row, err error) {
	defer func() {
		if p := recover(); p != nil {
			rows, err = nil, fmt.Errorf("reference: %v", p)
		}
	}()
	r, err := e.rel(rel, nil)
	if err != nil {
		return nil, err
	}
	if outCols == nil {
		return r.rows, nil
	}
	return r.project(outCols), nil
}

// nested evaluates a relational input reached per outer row (an Apply's
// right side, a subquery), memoizing inputs that cannot see the row.
func (e *Evaluator) nested(rel algebra.Rel, outer *scope) (*relation, error) {
	if r := e.memo[rel]; r != nil {
		return r, nil
	}
	r, err := e.rel(rel, outer)
	if err == nil && algebra.OuterRefs(rel).Empty() && !algebra.HasForeignSegmentRefs(rel) {
		if e.memo == nil {
			e.memo = map[algebra.Rel]*relation{}
		}
		e.memo[rel] = r
	}
	return r, err
}

func (e *Evaluator) rel(rel algebra.Rel, outer *scope) (*relation, error) {
	// Inputs are evaluated first — except the right side of an Apply and
	// the inner side of a SegmentApply, which are evaluated per row and
	// per segment below.
	var in []*relation
	for i, child := range rel.Inputs() {
		switch rel.(type) {
		case *algebra.Apply, *algebra.SegmentApply:
			if i == 1 {
				continue
			}
		}
		r, err := e.rel(child, outer)
		if err != nil {
			return r, err
		}
		in = append(in, r)
	}

	switch t := rel.(type) {
	case *algebra.Get:
		tbl, ok := e.Store.Table(t.Table)
		if !ok {
			return nil, fmt.Errorf("reference: no table %q", t.Table)
		}
		// A Get carrying an Order is a promise downstream operators (an
		// elided Sort) rely on; here it is simply a sort.
		return sorted(newRelation(t.Cols, tbl.AllRows()), t.Order), nil

	case *algebra.Select:
		out := newRelation(in[0].cols, nil)
		sc := &scope{in[0], nil, outer}
		for _, sc.row = range in[0].rows {
			ok, err := e.holds(t.Filter, sc)
			if err != nil {
				return nil, err
			}
			if ok {
				out.rows = append(out.rows, sc.row)
			}
		}
		return out, nil

	case *algebra.Project:
		pass := t.Passthrough.Ordered()
		cols := append([]algebra.ColID(nil), pass...)
		for _, it := range t.Items {
			cols = append(cols, it.Col)
		}
		out := newRelation(cols, in[0].project(pass))
		sc := &scope{in[0], nil, outer}
		for i, row := range in[0].rows {
			sc.row = row
			for _, it := range t.Items {
				d, err := e.scalar(it.Expr, sc)
				if err != nil {
					return nil, err
				}
				out.rows[i] = append(out.rows[i], d)
			}
		}
		return out, nil

	case *algebra.Join:
		find := candidates(t.On, in[0], in[1])
		return e.combine(t.Kind, t.On, in[0], in[1].cols, outer, func(l *scope) (*relation, []types.Row, error) {
			return in[1], find(l.row), nil
		})

	case *algebra.Apply:
		// The right side is evaluated per left row, with the row in scope;
		// its layout is fixed by the tree and is taken from an evaluation
		// (any order will do when there is none).
		rcols := algebra.OutputCols(t.Right).Ordered()
		return e.combine(t.Kind, t.On, in[0], rcols, outer, func(l *scope) (*relation, []types.Row, error) {
			right, err := e.nested(t.Right, l)
			if err != nil {
				return nil, nil, err
			}
			copy(rcols, right.cols)
			return right, right.rows, nil
		})

	case *algebra.GroupBy:
		return e.groupBy(t, in[0], outer)

	case *algebra.SegmentApply:
		var keyOrds []int
		for i, c := range t.InputCols {
			if t.SegmentCols.Contains(c) {
				keyOrds = append(keyOrds, i)
			}
		}
		out := newRelation(algebra.OutputCols(t.Inner).Ordered(), nil)
		for i, seg := range partition(in[0].project(t.InputCols), keyOrds) {
			e.segs = append(e.segs, newRelation(t.InputCols, seg))
			r, err := e.rel(t.Inner, outer)
			e.segs = e.segs[:len(e.segs)-1]
			if err != nil {
				return nil, err
			}
			if i == 0 {
				out = newRelation(r.cols, nil)
			}
			out.rows = append(out.rows, r.rows...)
		}
		return out, nil

	case *algebra.SegmentRef:
		if len(e.segs) == 0 {
			return nil, fmt.Errorf("reference: SegmentRef outside SegmentApply")
		}
		// Positional rename of the innermost segment.
		return newRelation(t.Cols, e.segs[len(e.segs)-1].rows), nil

	case *algebra.Max1Row:
		if len(in[0].rows) > 1 {
			return nil, fmt.Errorf("reference: scalar subquery returned more than one row")
		}
		return in[0], nil

	case *algebra.UnionAll:
		return newRelation(t.OutCols, append(in[0].project(t.LeftCols), in[1].project(t.RightCols)...)), nil

	case *algebra.Difference:
		out := newRelation(t.OutCols, nil)
		right := in[1].project(t.RightCols)
		used := make([]bool, len(right))
		all := make([]int, len(t.OutCols))
		for i := range all {
			all[i] = i
		}
	next:
		for _, lrow := range in[0].project(t.LeftCols) {
			for i, rrow := range right {
				if !used[i] && types.EqualRows(lrow, all, rrow, all) {
					used[i] = true
					continue next
				}
			}
			out.rows = append(out.rows, lrow)
		}
		return out, nil

	case *algebra.Values:
		out := newRelation(t.Cols, nil)
		for _, src := range t.Rows {
			row := make(types.Row, len(src))
			for i, s := range src {
				var err error
				if row[i], err = e.scalar(s, outer); err != nil {
					return nil, err
				}
			}
			out.rows = append(out.rows, row)
		}
		return out, nil

	case *algebra.Sort:
		return sorted(in[0], t.By), nil

	case *algebra.Top:
		return newRelation(in[0].cols, in[0].rows[:min(int64(len(in[0].rows)), max(t.N, 0))]), nil

	case *algebra.Exchange:
		// Workers change where the rows are computed, not which.
		return in[0], nil

	case *algebra.RowNumber:
		out := newRelation(append(append([]algebra.ColID(nil), in[0].cols...), t.Col), nil)
		for i, row := range in[0].rows {
			out.rows = append(out.rows, append(append(types.Row(nil), row...), types.NewInt(int64(i+1))))
		}
		return out, nil
	}
	return nil, fmt.Errorf("reference: cannot evaluate %T", rel)
}

func joinCols(kind algebra.JoinKind, l, r []algebra.ColID) []algebra.ColID {
	if !kind.ReturnsRightCols() {
		return l
	}
	return append(append([]algebra.ColID(nil), l...), r...)
}

// combine is the one join loop: for each left row, rightFor yields the
// right relation (laid out as rcols) and the candidate rows of it; on
// is evaluated for every (left, candidate) pair — the candidate in
// scope inside the left row — and kind decides what the matches
// produce.
func (e *Evaluator) combine(kind algebra.JoinKind, on algebra.Scalar, left *relation, rcols []algebra.ColID, outer *scope,
	rightFor func(l *scope) (*relation, []types.Row, error)) (*relation, error) {
	var out []types.Row
	l := &scope{left, nil, outer}
	for _, l.row = range left.rows {
		right, cands, err := rightFor(l)
		if err != nil {
			return nil, err
		}
		matched := false
		r := &scope{right, nil, l}
		for _, r.row = range cands {
			ok, err := e.holds(on, r)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			matched = true
			if kind == algebra.SemiJoin || kind == algebra.AntiSemiJoin {
				break
			}
			out = append(out, append(append(types.Row(nil), l.row...), r.row...))
		}
		switch {
		case kind == algebra.SemiJoin && matched, kind == algebra.AntiSemiJoin && !matched:
			out = append(out, l.row)
		case kind == algebra.LeftOuterJoin && !matched:
			padded := append(types.Row(nil), l.row...)
			for range rcols {
				padded = append(padded, types.NullUnknown)
			}
			out = append(out, padded)
		}
	}
	return newRelation(joinCols(kind, left.cols, rcols), out), nil
}

// candidates returns, for a join predicate, a function from a left row
// to the right rows worth testing: those agreeing with it on the hash
// of the predicate's left-column = right-column conjuncts, or every
// right row when it has none. The caller still evaluates the whole
// predicate on each candidate, so this only ever skips pairs.
func candidates(on algebra.Scalar, left, right *relation) func(types.Row) []types.Row {
	var lo, ro []int
	for _, c := range algebra.Conjuncts(on) {
		cmp, ok := c.(*algebra.Cmp)
		if !ok || cmp.Op != algebra.CmpEq {
			continue
		}
		a, aok := cmp.L.(*algebra.ColRef)
		b, bok := cmp.R.(*algebra.ColRef)
		if !aok || !bok {
			continue
		}
		if _, ok := left.ords[a.Col]; !ok {
			a, b = b, a
		}
		l, lok := left.ords[a.Col]
		r, rok := right.ords[b.Col]
		if lok && rok {
			lo, ro = append(lo, l), append(ro, r)
		}
	}
	if lo == nil {
		return func(types.Row) []types.Row { return right.rows }
	}
	byHash := map[uint64][]types.Row{}
	for _, row := range right.rows {
		h := types.HashRow(row, ro)
		byHash[h] = append(byHash[h], row)
	}
	return func(lrow types.Row) []types.Row { return byHash[types.HashRow(lrow, lo)] }
}

// partition splits rows into groups equal on keyOrds (NULLs equal), in
// order of first appearance.
func partition(rows []types.Row, keyOrds []int) [][]types.Row {
	var groups [][]types.Row
	byHash := map[uint64][]int{}
next:
	for _, row := range rows {
		h := types.HashRow(row, keyOrds)
		for _, g := range byHash[h] {
			if types.EqualRows(groups[g][0], keyOrds, row, keyOrds) {
				groups[g] = append(groups[g], row)
				continue next
			}
		}
		byHash[h] = append(byHash[h], len(groups))
		groups = append(groups, []types.Row{row})
	}
	return groups
}

// sorted returns r ordered by the keys, stably; NULLs sort first
// (types.Compare's total order, NaNs after every number), last
// under Desc.
func sorted(r *relation, by []algebra.Ordering) *relation {
	if len(by) == 0 {
		return r
	}
	ords := make([]int, len(by))
	for i, o := range by {
		ords[i] = r.ord(o.Col)
	}
	out := newRelation(r.cols, append([]types.Row(nil), r.rows...))
	sort.SliceStable(out.rows, func(a, b int) bool {
		for i, o := range by {
			if c := types.Compare(out.rows[a][ords[i]], out.rows[b][ords[i]]); c != 0 {
				return (c < 0) != o.Desc
			}
		}
		return false
	})
	return out
}

// groupBy evaluates G_{A,F}: one output row per distinct value of the
// grouping columns, or — for scalar aggregation — exactly one row even
// over empty input (§1.1).
func (e *Evaluator) groupBy(gb *algebra.GroupBy, in *relation, outer *scope) (*relation, error) {
	cols := gb.GroupCols.Ordered()
	keyOrds := make([]int, len(cols))
	for i, c := range cols {
		keyOrds[i] = in.ord(c)
	}
	for _, a := range gb.Aggs {
		cols = append(cols, a.Col)
	}
	out := newRelation(cols, nil)
	groups := partition(in.rows, keyOrds)
	if len(groups) == 0 && gb.Kind == algebra.ScalarGroupBy {
		groups = [][]types.Row{nil}
	}
	for _, rows := range groups {
		orow := make(types.Row, 0, len(cols))
		for _, o := range keyOrds {
			orow = append(orow, rows[0][o])
		}
		for i := range gb.Aggs {
			d, err := e.aggregate(&gb.Aggs[i], in, rows, outer)
			if err != nil {
				return nil, err
			}
			orow = append(orow, d)
		}
		out.rows = append(out.rows, orow)
	}
	return out, nil
}

// aggregate folds one aggregate over the rows of one group. NULL
// arguments are ignored; over no (non-NULL) input, counts are 0 and
// everything else is NULL.
func (e *Evaluator) aggregate(a *algebra.AggItem, in *relation, rows []types.Row, outer *scope) (types.Datum, error) {
	if a.Func == algebra.AggCountStar {
		return types.NewInt(int64(len(rows))), nil
	}
	var vals []types.Datum
	sc := &scope{in, nil, outer}
	for _, sc.row = range rows {
		d, err := e.scalar(a.Arg, sc)
		if err != nil {
			return d, err
		}
		dup := d.IsNull()
		for i := 0; a.Distinct && i < len(vals) && !dup; i++ {
			dup = types.Equal(vals[i], d)
		}
		if !dup {
			vals = append(vals, d)
		}
	}
	if a.Func == algebra.AggCount {
		return types.NewInt(int64(len(vals))), nil
	}
	if len(vals) == 0 {
		return types.NullUnknown, nil
	}
	acc := vals[0] // AggConstAny: any value of the group will do
	for _, d := range vals[1:] {
		switch a.Func {
		case algebra.AggSum, algebra.AggAvg:
			var err error
			if acc, err = types.Arith(types.OpAdd, acc, d); err != nil {
				return acc, err
			}
		case algebra.AggMin:
			if types.Compare(d, acc) < 0 {
				acc = d
			}
		case algebra.AggMax:
			if types.Compare(d, acc) > 0 {
				acc = d
			}
		}
	}
	if a.Func == algebra.AggAvg {
		sum, _ := acc.AsFloat()
		return types.NewFloat(sum / float64(len(vals))), nil
	}
	return acc, nil
}
