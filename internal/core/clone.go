package core

import (
	"orthoq/internal/algebra"
)

// cloneWithFreshCols deep-copies an expression, giving every column it
// produces a fresh ID (metadata copied), and returns the old→new map.
// It implements the "common subexpression" duplication of identities
// (5)–(7): two instances of R must not share column identities.
func cloneWithFreshCols(md *algebra.Metadata, r algebra.Rel) (algebra.Rel, map[algebra.ColID]algebra.ColID) {
	remap := make(map[algebra.ColID]algebra.ColID)
	// First pass: allocate fresh IDs for every produced column.
	algebra.VisitRel(r, func(n algebra.Rel) bool {
		for _, c := range algebra.ProducedCols(n) {
			if _, ok := remap[c]; !ok {
				remap[c] = md.CopyColumn(c)
			}
		}
		return true
	})
	return remapRel(r, remap), remap
}

// matchRels reports whether b is an instance of a — the same
// expression up to a bijection of the columns the two produce — and on
// success returns the bijection, from b's produced columns to a's: the
// zip of the two keys' columns (algebra.InstanceOf). This drives §3.4.1
// SegmentApply detection (correlation removal "frequently results in
// two almost identical expressions joined together").
func matchRels(a, b algebra.Instance) (map[algebra.ColID]algebra.ColID, bool) {
	if a.Key == "" || a.Key != b.Key {
		return nil, false
	}
	remap := make(map[algebra.ColID]algebra.ColID, len(b.Cols))
	for i, c := range b.Cols {
		remap[c] = a.Cols[i]
	}
	return remap, true
}

// remapRel rewrites every column reference and produced column through
// the substitution (IDs absent from the map are preserved), returning
// a structurally fresh tree.
func remapRel(r algebra.Rel, remap map[algebra.ColID]algebra.ColID) algebra.Rel {
	if r == nil {
		return nil
	}
	m := func(c algebra.ColID) algebra.ColID { return remapID(c, remap) }
	ms := func(s algebra.Scalar) algebra.Scalar {
		return algebra.MapScalarCols(s, remap, func(sub algebra.Rel) algebra.Rel { return remapRel(sub, remap) })
	}
	mset := func(s algebra.ColSet) algebra.ColSet {
		var out algebra.ColSet
		s.ForEach(func(c algebra.ColID) { out.Add(m(c)) })
		return out
	}
	mcols := func(cs []algebra.ColID) []algebra.ColID {
		out := make([]algebra.ColID, len(cs))
		for i, c := range cs {
			out[i] = m(c)
		}
		return out
	}
	morder := func(by []algebra.Ordering) []algebra.Ordering {
		var out []algebra.Ordering
		for _, o := range by {
			out = append(out, algebra.Ordering{Col: m(o.Col), Desc: o.Desc})
		}
		return out
	}

	switch t := r.(type) {
	case *algebra.Get:
		g := *t
		g.Cols, g.KeyCols, g.Order = mcols(t.Cols), mset(t.KeyCols), morder(t.Order)
		return &g
	case *algebra.Select:
		return &algebra.Select{Input: remapRel(t.Input, remap), Filter: ms(t.Filter)}
	case *algebra.Project:
		items := make([]algebra.ProjItem, len(t.Items))
		for i, it := range t.Items {
			items[i] = algebra.ProjItem{Col: m(it.Col), Expr: ms(it.Expr)}
		}
		return &algebra.Project{Input: remapRel(t.Input, remap), Passthrough: mset(t.Passthrough), Items: items}
	case *algebra.Join:
		return &algebra.Join{Kind: t.Kind,
			Left: remapRel(t.Left, remap), Right: remapRel(t.Right, remap), On: ms(t.On)}
	case *algebra.Apply:
		return &algebra.Apply{Kind: t.Kind,
			Left: remapRel(t.Left, remap), Right: remapRel(t.Right, remap), On: ms(t.On)}
	case *algebra.GroupBy:
		aggs := make([]algebra.AggItem, len(t.Aggs))
		for i, a := range t.Aggs {
			aggs[i] = algebra.AggItem{Col: m(a.Col), Func: a.Func, Arg: ms(a.Arg),
				Distinct: a.Distinct, Global: a.Global}
		}
		return &algebra.GroupBy{Kind: t.Kind, Input: remapRel(t.Input, remap),
			GroupCols: mset(t.GroupCols), Aggs: aggs}
	case *algebra.SegmentApply:
		return &algebra.SegmentApply{
			Input:       remapRel(t.Input, remap),
			InputCols:   mcols(t.InputCols),
			SegmentCols: mset(t.SegmentCols),
			Inner:       remapRel(t.Inner, remap),
		}
	case *algebra.SegmentRef:
		return &algebra.SegmentRef{Cols: mcols(t.Cols)}
	case *algebra.Max1Row:
		return &algebra.Max1Row{Input: remapRel(t.Input, remap)}
	case *algebra.UnionAll:
		return &algebra.UnionAll{
			Left: remapRel(t.Left, remap), Right: remapRel(t.Right, remap),
			LeftCols: mcols(t.LeftCols), RightCols: mcols(t.RightCols), OutCols: mcols(t.OutCols),
		}
	case *algebra.Difference:
		return &algebra.Difference{
			Left: remapRel(t.Left, remap), Right: remapRel(t.Right, remap),
			LeftCols: mcols(t.LeftCols), RightCols: mcols(t.RightCols), OutCols: mcols(t.OutCols),
		}
	case *algebra.Values:
		rows := make([]algebra.ValuesRow, len(t.Rows))
		for i, row := range t.Rows {
			nr := make(algebra.ValuesRow, len(row))
			for j, e := range row {
				nr[j] = ms(e)
			}
			rows[i] = nr
		}
		return &algebra.Values{Cols: mcols(t.Cols), Rows: rows}
	case *algebra.Sort:
		return &algebra.Sort{Input: remapRel(t.Input, remap), By: morder(t.By)}
	case *algebra.Top:
		return &algebra.Top{Input: remapRel(t.Input, remap), N: t.N}
	case *algebra.RowNumber:
		return &algebra.RowNumber{Input: remapRel(t.Input, remap), Col: m(t.Col)}
	}
	return r
}
