package core

import (
	"orthoq/internal/algebra"
	"orthoq/internal/sql/types"
)

// TrySplitGroupBy implements §3.3: G(A,F) R = G(A,Fg)(LG(A,Fl) R).
// Each aggregate is split into local partials and a global combiner:
//
//	sum      → local sum,       global sum of partials
//	count(x) → local count(x),  global sum of partials
//	count(*) → local count(*),  global sum of partials
//	min/max  → local min/max,   global min/max of partials
//	avg      → local sum+count, global sum/sum with a computing project
//
// The LocalGroupBy folds one partial per function and argument, which
// every aggregate needing it reads (an avg shares its sum and count),
// and a count of a column NotNullCols proves never NULL is count(*).
//
// A scalar GroupBy splits into a scalar global over a LocalGroupBy
// without grouping columns. On empty input no partial reaches the
// global, whose one row is then agg(∅) of the combiners: NULL for
// every aggregate but a count, which a computing project turns from
// sum(∅) back into count(∅), 0.
//
// DISTINCT aggregates are not splittable. The returned expression
// computes exactly the same result columns as gb.
func TrySplitGroupBy(md *algebra.Metadata, gb *algebra.GroupBy) (algebra.Rel, bool) {
	if gb.Kind == algebra.LocalGroupBy || len(gb.Aggs) == 0 {
		return nil, false
	}
	for _, a := range gb.Aggs {
		if a.Distinct || !(a.Func.Splittable() || a.Func == algebra.AggAvg) {
			return nil, false
		}
		// Never re-split a combining (global) aggregate: one
		// local/global level is exhaustive, and re-splitting would
		// explore an unbounded chain of equivalent plans.
		if a.Global {
			return nil, false
		}
	}
	if in, ok := gb.Input.(*algebra.GroupBy); ok && in.Kind == algebra.LocalGroupBy {
		return nil, false
	}

	local := &algebra.GroupBy{Kind: algebra.LocalGroupBy, Input: gb.Input,
		GroupCols: gb.GroupCols.Copy()}
	global := &algebra.GroupBy{Kind: gb.Kind, GroupCols: gb.GroupCols.Copy()}
	proj := &algebra.Project{}
	needProj := false

	// The helper columns are derived from the aggregate's own column,
	// so splitting the same aggregate again names the same partials.
	derive := func(from algebra.ColID, role string, typ types.Kind) algebra.ColID {
		return md.DerivedColumn(from, role, algebra.ColumnMeta{Alias: md.Alias(from) + role, Type: typ})
	}
	partials := map[string]algebra.ColID{} // named for the first aggregate reading one
	notNull := algebra.NotNullCols(md, gb.Input)
	partial := func(fn algebra.AggFunc, arg algebra.Scalar, from algebra.ColID, role string, typ types.Kind) *algebra.ColRef {
		if ref, ok := arg.(*algebra.ColRef); ok && fn == algebra.AggCount && notNull.Contains(ref.Col) {
			fn, arg = algebra.AggCountStar, nil
		}
		key := string(algebra.AppendScalarKey([]byte(fn.String()+"\x00"), arg))
		col, ok := partials[key]
		if !ok {
			col = derive(from, role, typ)
			partials[key] = col
			local.Aggs = append(local.Aggs, algebra.AggItem{Col: col, Func: fn, Arg: arg})
		}
		return &algebra.ColRef{Col: col}
	}
	for _, a := range gb.Aggs {
		switch a.Func {
		case algebra.AggSum, algebra.AggMin, algebra.AggMax, algebra.AggConstAny:
			global.Aggs = append(global.Aggs, algebra.AggItem{
				Col: a.Col, Func: a.Func, Arg: partial(a.Func, a.Arg, a.Col, "_l", md.Type(a.Col)), Global: true})
		case algebra.AggCount, algebra.AggCountStar:
			part := partial(a.Func, a.Arg, a.Col, "_l", types.Int)
			if gb.Kind == algebra.VectorGroupBy {
				global.Aggs = append(global.Aggs, algebra.AggItem{
					Col: a.Col, Func: algebra.AggSum, Arg: part, Global: true})
				break
			}
			sumG := derive(a.Col, "_g", types.Int)
			global.Aggs = append(global.Aggs, algebra.AggItem{
				Col: sumG, Func: algebra.AggSum, Arg: part, Global: true})
			proj.Items = append(proj.Items, algebra.ProjItem{
				Col: a.Col,
				Expr: &algebra.Case{
					Whens: []algebra.When{{
						Cond: &algebra.IsNull{Arg: &algebra.ColRef{Col: sumG}},
						Then: &algebra.Const{Val: types.NewInt(0)},
					}},
					Else: &algebra.ColRef{Col: sumG},
				},
			})
			needProj = true
		case algebra.AggAvg:
			// Composite (§3.3 footnote): decompose into primitive
			// sum/count pieces and recombine with a project. The sum is
			// made a Float before the division, as the unsplit avg
			// divides: an Int sum over an Int count would divide
			// integrally.
			sumL := partial(algebra.AggSum, a.Arg, a.Col, "_suml", types.Float)
			cntL := partial(algebra.AggCount, a.Arg, a.Col, "_cntl", types.Int)
			sumG := derive(a.Col, "_sumg", types.Float)
			cntG := derive(a.Col, "_cntg", types.Int)
			global.Aggs = append(global.Aggs,
				algebra.AggItem{Col: sumG, Func: algebra.AggSum, Arg: sumL, Global: true},
				algebra.AggItem{Col: cntG, Func: algebra.AggSum, Arg: cntL, Global: true})
			proj.Items = append(proj.Items, algebra.ProjItem{
				Col: a.Col,
				Expr: &algebra.Case{
					Whens: []algebra.When{{
						Cond: &algebra.Cmp{Op: algebra.CmpGt,
							L: &algebra.ColRef{Col: cntG},
							R: &algebra.Const{Val: types.NewInt(0)}},
						Then: &algebra.Arith{Op: types.OpDiv,
							L: &algebra.Arith{Op: types.OpMul,
								L: &algebra.ColRef{Col: sumG},
								R: &algebra.Const{Val: types.NewFloat(1)}},
							R: &algebra.ColRef{Col: cntG}},
					}},
				},
			})
			needProj = true
		default:
			return nil, false
		}
	}

	global.Input = local
	if !needProj {
		return global, true
	}
	proj.Input = global
	out := algebra.OutputCols(global)
	// avg helper columns are hidden; everything else passes through.
	var hidden algebra.ColSet
	for _, it := range global.Aggs {
		found := false
		for _, orig := range gb.Aggs {
			if it.Col == orig.Col {
				found = true
			}
		}
		if !found {
			hidden.Add(it.Col)
		}
	}
	out.ForEach(func(c algebra.ColID) {
		if !hidden.Contains(c) {
			proj.Passthrough.Add(c)
		}
	})
	return proj, true
}

// TryPushLocalGroupByBelowJoin pushes a LocalGroupBy below an inner
// join, into the side that defines all aggregate inputs (§3.3). The
// grouping columns are extended with the join-predicate columns of
// that side — "this ability to extend grouping columns gives us
// infinite freedom" — so no key conditions are needed: rows grouped
// together agree on the join columns, hence have identical match
// multiplicity, and the global GroupBy above recombines partials
// exactly as the unsplit aggregate would.
func TryPushLocalGroupByBelowJoin(md *algebra.Metadata, cols algebra.ColsOf, lg *algebra.GroupBy) (algebra.Rel, bool) {
	if lg.Kind != algebra.LocalGroupBy {
		return nil, false
	}
	j, ok := lg.Input.(*algebra.Join)
	if !ok || (j.Kind != algebra.InnerJoin && j.Kind != algebra.CrossJoin) {
		return nil, false
	}
	var pCols algebra.ColSet
	if j.On != nil {
		pCols = algebra.ScalarCols(j.On)
	}
	var argCols algebra.ColSet
	for _, a := range lg.Aggs {
		if a.Arg != nil {
			argCols.UnionWith(algebra.ScalarCols(a.Arg))
		}
		if a.Distinct {
			return nil, false
		}
	}
	lCols := cols.ColsOf(j.Left)
	rCols := cols.ColsOf(j.Right)

	push := func(side algebra.Rel, sideCols algebra.ColSet, buildJoin func(algebra.Rel) *algebra.Join) (algebra.Rel, bool) {
		if !argCols.SubsetOf(sideCols) {
			return nil, false
		}
		// count(*) needs no argument check: a local count of side rows,
		// re-summed by the global combiner once per join match, equals
		// the unsplit count of joined rows.
		inner := &algebra.GroupBy{
			Kind:      algebra.LocalGroupBy,
			Input:     side,
			GroupCols: lg.GroupCols.Union(pCols).Intersection(sideCols),
			Aggs:      lg.Aggs,
		}
		return buildJoin(inner), true
	}

	if r, ok := push(j.Right, rCols, func(in algebra.Rel) *algebra.Join {
		return &algebra.Join{Kind: j.Kind, Left: j.Left, Right: in, On: j.On}
	}); ok {
		return r, true
	}
	return push(j.Left, lCols, func(in algebra.Rel) *algebra.Join {
		return &algebra.Join{Kind: j.Kind, Left: in, Right: j.Right, On: j.On}
	})
}
