package core

import (
	"bytes"

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
	return remapRel(r, remap), remap
}

// matchRels reports whether b is an instance of a — the same
// expression up to a bijection of the columns the two produce — and on
// success returns the bijection, from b's produced columns to a's.
// This drives §3.4.1 SegmentApply detection (correlation removal
// "frequently results in two almost identical expressions joined
// together"). An instance is recognized with the tools that make one:
// the trees' produced columns, zipped in preorder, are the candidate
// bijection, and b renamed through it by remapRel must render node for
// node as a does under algebra.AppendNodeKey, the memo's own key. Only
// Get, Select, Project, GroupBy and Join take part; a subquery never
// matches, because its key is its pointer.
func matchRels(a, b algebra.Rel) (map[algebra.ColID]algebra.ColID, bool) {
	na, nb := preorder(nil, a), preorder(nil, b)
	if len(na) != len(nb) {
		return nil, false
	}
	remap := make(map[algebra.ColID]algebra.ColID)
	for i, n := range na {
		if !inMatchDomain(n) {
			return nil, false
		}
		pa, pb := producedCols(n), producedCols(nb[i])
		if len(pa) != len(pb) {
			return nil, false
		}
		for j, c := range pb {
			remap[c] = pa[j]
		}
	}
	var ka, kb []byte
	for i, n := range preorder(nb[:0], remapRel(b, remap)) {
		ka, kb = algebra.AppendNodeKey(ka[:0], na[i]), algebra.AppendNodeKey(kb[:0], n)
		if !bytes.Equal(ka, kb) {
			return nil, false
		}
	}
	return remap, true
}

// inMatchDomain reports whether matchRels reads the node n.
func inMatchDomain(n algebra.Rel) bool {
	switch n.(type) {
	case *algebra.Get, *algebra.Select, *algebra.Project, *algebra.GroupBy, *algebra.Join:
		return true
	}
	return false
}

// preorder appends r's nodes to dst, each before its inputs.
func preorder(dst []algebra.Rel, r algebra.Rel) []algebra.Rel {
	dst = append(dst, r)
	for _, c := range r.Inputs() {
		dst = preorder(dst, c)
	}
	return dst
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
