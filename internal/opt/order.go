package opt

import (
	"orthoq/internal/algebra"
	"orthoq/internal/exec"
	"orthoq/internal/sql/catalog"
)

// Order-aware transformation rules: physical sort properties treated
// as "interesting orders". Each rule produces a variant plan in which
// a base-table access promises an ordering (Get.Order) that an ordered
// index delivers for free, letting an explicit Sort be removed or a
// downstream operator (merge join, streaming aggregation) switch to a
// cheaper order-exploiting implementation. The cost model then decides
// whether the ordered variant wins.

// tryEliminateSort removes a Sort whose input can deliver the order:
// either it already does (redundant Sort), or the requirement can be
// moved down a Select/Project spine onto a Get backed by a matching
// ordered index.
func tryEliminateSort(md *algebra.Metadata, cat *catalog.Catalog, s *algebra.Sort, inOrder []algebra.Ordering) (algebra.Rel, bool) {
	if algebra.OrderCovers(inOrder, s.By) {
		return s.Input, true
	}
	return pushOrder(md, cat, s.Input, s.By)
}

// tryMergeJoinOrder orders both join inputs on the equality keys so
// the executor selects a merge join. Inputs already covering their key
// order are left alone; the others get the requirement installed on an
// index-backed Get.
func tryMergeJoinOrder(md *algebra.Metadata, cat *catalog.Catalog, j *algebra.Join, in algebra.Props) (algebra.Rel, bool) {
	switch j.Kind {
	case algebra.InnerJoin, algebra.SemiJoin, algebra.AntiSemiJoin, algebra.LeftOuterJoin:
	default:
		return nil, false
	}
	for i, side := range [2]algebra.Rel{j.Left, j.Right} {
		if _, ok := spineGet(side); !ok && len(in.DeliveredOrder(i)) == 0 {
			return nil, false // unordered, and no index can order it
		}
	}
	lKeys, rKeys, _ := exec.SplitJoinKeys(j.On, in.OutputCols(0), in.OutputCols(1))
	if len(lKeys) == 0 {
		return nil, false // no keys to merge on
	}
	lOrder, rOrder := in.DeliveredOrder(0), in.DeliveredOrder(1)
	lBy, rBy := ascOrderings(lKeys), ascOrderings(rKeys)
	if algebra.OrderCovers(lOrder, lBy) && algebra.OrderCovers(rOrder, rBy) {
		return nil, false // a merge join already
	}
	newL, newR := j.Left, j.Right
	if !algebra.OrderCovers(lOrder, lBy) {
		nl, ok := pushOrder(md, cat, newL, lBy)
		if !ok {
			return nil, false
		}
		newL = nl
	}
	if !algebra.OrderCovers(rOrder, rBy) {
		nr, ok := pushOrder(md, cat, newR, rBy)
		if !ok {
			return nil, false
		}
		newR = nr
	}
	nj := *j
	nj.Left, nj.Right = newL, newR
	return &nj, true
}

// tryStreamAggOrder orders a GroupBy's input on its grouping columns
// (in the column sequence of a matching ordered index) so every group
// arrives contiguously and the executor aggregates streaming.
func tryStreamAggOrder(md *algebra.Metadata, cat *catalog.Catalog, gb *algebra.GroupBy, inOrder []algebra.Ordering) (algebra.Rel, bool) {
	if gb.GroupCols.Empty() {
		return nil, false
	}
	if algebra.GroupedBy(inOrder, gb.GroupCols) {
		return nil, false // already grouped
	}
	g, ok := spineGet(gb.Input)
	if !ok {
		return nil, false
	}
	by := groupOrderFromIndex(cat, g, gb.GroupCols)
	if by == nil {
		return nil, false
	}
	in, ok := pushOrder(md, cat, gb.Input, by)
	if !ok {
		return nil, false
	}
	ngb := *gb
	ngb.Input = in
	return &ngb, true
}

func ascOrderings(cols []algebra.ColID) []algebra.Ordering {
	by := make([]algebra.Ordering, len(cols))
	for i, c := range cols {
		by[i] = algebra.Ordering{Col: c}
	}
	return by
}

// pushOrder rebuilds r with the order requirement installed on the
// base-table access at the bottom of its Select/Project spine,
// provided a matching ordered index exists. Select and order-column-
// preserving Project pass the requirement through unchanged (their
// delivered-order derivations mirror this exactly).
func pushOrder(md *algebra.Metadata, cat *catalog.Catalog, r algebra.Rel, by []algebra.Ordering) (algebra.Rel, bool) {
	switch t := r.(type) {
	case *algebra.Get:
		if len(t.Order) > 0 {
			return nil, false
		}
		ng := *t
		ng.Order = append([]algebra.Ordering(nil), by...)
		if tbl, ok := cat.Table(t.Table); !ok || exec.Access(tbl, &ng, nil, algebra.ColSet{}, nil).Index == nil {
			return nil, false
		}
		return &ng, true
	case *algebra.Select:
		in, ok := pushOrder(md, cat, t.Input, by)
		if !ok {
			return nil, false
		}
		return &algebra.Select{Input: in, Filter: t.Filter}, true
	case *algebra.Project:
		// The order columns must come from below the projection (an
		// item-computed column has no index).
		below := algebra.OutputCols(t.Input)
		for _, o := range by {
			if !below.Contains(o.Col) {
				return nil, false
			}
		}
		in, ok := pushOrder(md, cat, t.Input, by)
		if !ok {
			return nil, false
		}
		np := *t
		np.Input = in
		return &np, true
	}
	return nil, false
}

// spineGet finds the base-table access at the bottom of a
// Select/Project spine.
func spineGet(r algebra.Rel) (*algebra.Get, bool) {
	switch t := r.(type) {
	case *algebra.Get:
		return t, true
	case *algebra.Select:
		return spineGet(t.Input)
	case *algebra.Project:
		return spineGet(t.Input)
	}
	return nil, false
}

// groupOrderFromIndex finds an ordered index whose leading columns are
// exactly the grouping set and returns the corresponding ascending
// ordering (in index column sequence).
func groupOrderFromIndex(cat *catalog.Catalog, g *algebra.Get, cols algebra.ColSet) []algebra.Ordering {
	tbl, ok := cat.Table(g.Table)
	if !ok {
		return nil
	}
	n := cols.Len()
	for _, idx := range tbl.Indexes {
		if !idx.Ordered || len(idx.Cols) < n {
			continue
		}
		by := make([]algebra.Ordering, 0, n)
		ok := true
		for _, ord := range idx.Cols[:n] {
			if ord >= len(g.Cols) || !cols.Contains(g.Cols[ord]) {
				ok = false
				break
			}
			by = append(by, algebra.Ordering{Col: g.Cols[ord]})
		}
		if ok {
			return by
		}
	}
	return nil
}
