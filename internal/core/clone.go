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
		for _, c := range producedCols(n) {
			if _, ok := remap[c]; !ok {
				remap[c] = md.CopyColumn(c)
			}
		}
		return true
	})
	return remapRel(md, r, remap), remap
}

// producedCols lists the column IDs a node itself introduces.
func producedCols(n algebra.Rel) []algebra.ColID {
	switch t := n.(type) {
	case *algebra.Get:
		return t.Cols
	case *algebra.Project:
		out := make([]algebra.ColID, 0, len(t.Items))
		for _, it := range t.Items {
			out = append(out, it.Col)
		}
		return out
	case *algebra.GroupBy:
		out := make([]algebra.ColID, 0, len(t.Aggs))
		for _, a := range t.Aggs {
			out = append(out, a.Col)
		}
		return out
	case *algebra.UnionAll:
		return t.OutCols
	case *algebra.Difference:
		return t.OutCols
	case *algebra.Values:
		return t.Cols
	case *algebra.RowNumber:
		return []algebra.ColID{t.Col}
	case *algebra.SegmentRef:
		return t.Cols
	}
	return nil
}

// remapRel rewrites every column reference and produced column through
// the substitution (IDs absent from the map are preserved), returning
// a structurally fresh tree.
func remapRel(md *algebra.Metadata, r algebra.Rel, remap map[algebra.ColID]algebra.ColID) algebra.Rel {
	if r == nil {
		return nil
	}
	m := func(c algebra.ColID) algebra.ColID { return remapID(c, remap) }
	ms := func(s algebra.Scalar) algebra.Scalar {
		if s == nil {
			return nil
		}
		return algebra.MapScalarCols(s, remap, func(sub algebra.Rel) algebra.Rel {
			return remapRel(md, sub, remap)
		})
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

	switch t := r.(type) {
	case *algebra.Get:
		return &algebra.Get{Table: t.Table, Cols: mcols(t.Cols), KeyCols: mset(t.KeyCols)}
	case *algebra.Select:
		return &algebra.Select{Input: remapRel(md, t.Input, remap), Filter: ms(t.Filter)}
	case *algebra.Project:
		items := make([]algebra.ProjItem, len(t.Items))
		for i, it := range t.Items {
			items[i] = algebra.ProjItem{Col: m(it.Col), Expr: ms(it.Expr)}
		}
		return &algebra.Project{Input: remapRel(md, t.Input, remap), Passthrough: mset(t.Passthrough), Items: items}
	case *algebra.Join:
		return &algebra.Join{Kind: t.Kind,
			Left: remapRel(md, t.Left, remap), Right: remapRel(md, t.Right, remap), On: ms(t.On)}
	case *algebra.Apply:
		return &algebra.Apply{Kind: t.Kind,
			Left: remapRel(md, t.Left, remap), Right: remapRel(md, t.Right, remap), On: ms(t.On)}
	case *algebra.GroupBy:
		aggs := make([]algebra.AggItem, len(t.Aggs))
		for i, a := range t.Aggs {
			aggs[i] = algebra.AggItem{Col: m(a.Col), Func: a.Func, Arg: ms(a.Arg),
				Distinct: a.Distinct, Global: a.Global}
		}
		return &algebra.GroupBy{Kind: t.Kind, Input: remapRel(md, t.Input, remap),
			GroupCols: mset(t.GroupCols), Aggs: aggs}
	case *algebra.SegmentApply:
		return &algebra.SegmentApply{
			Input:       remapRel(md, t.Input, remap),
			InputCols:   mcols(t.InputCols),
			SegmentCols: mset(t.SegmentCols),
			Inner:       remapRel(md, t.Inner, remap),
		}
	case *algebra.SegmentRef:
		return &algebra.SegmentRef{Cols: mcols(t.Cols)}
	case *algebra.Max1Row:
		return &algebra.Max1Row{Input: remapRel(md, t.Input, remap)}
	case *algebra.UnionAll:
		return &algebra.UnionAll{
			Left: remapRel(md, t.Left, remap), Right: remapRel(md, t.Right, remap),
			LeftCols: mcols(t.LeftCols), RightCols: mcols(t.RightCols), OutCols: mcols(t.OutCols),
		}
	case *algebra.Difference:
		return &algebra.Difference{
			Left: remapRel(md, t.Left, remap), Right: remapRel(md, t.Right, remap),
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
		by := make([]algebra.Ordering, len(t.By))
		for i, o := range t.By {
			by[i] = algebra.Ordering{Col: m(o.Col), Desc: o.Desc}
		}
		return &algebra.Sort{Input: remapRel(md, t.Input, remap), By: by}
	case *algebra.Top:
		return &algebra.Top{Input: remapRel(md, t.Input, remap), N: t.N}
	case *algebra.RowNumber:
		return &algebra.RowNumber{Input: remapRel(md, t.Input, remap), Col: m(t.Col)}
	}
	return r
}
