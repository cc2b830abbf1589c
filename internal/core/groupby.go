package core

import (
	"orthoq/internal/algebra"
	"orthoq/internal/sql/types"
)

// TryPushGroupByBelowJoin implements the §3.1 reorder: for
// G(A,F)(S ⋈p R) it aggregates R before the join,
//
//	S ⋈p (G(A∪columns(p)−columns(S), F) R)
//
// legal iff (1) join-predicate columns from R are grouping columns,
// (2) a key of S is among the grouping columns, and (3) the aggregates
// use only columns of R. For a left outerjoin (§3.2) the same holds
// with a compensating project that restores non-NULL empty-input
// aggregate values (count → 0) on unmatched rows.
//
// The rewrite aggregates the join's right input; callers wanting the
// left input aggregated commute the join first.
func TryPushGroupByBelowJoin(md *algebra.Metadata, cols algebra.ColsOf, gb *algebra.GroupBy) (algebra.Rel, bool) {
	if gb.Kind != algebra.VectorGroupBy {
		return nil, false
	}
	j, ok := gb.Input.(*algebra.Join)
	if !ok {
		return nil, false
	}
	switch j.Kind {
	case algebra.InnerJoin, algebra.LeftOuterJoin:
	default:
		return nil, false
	}
	sCols := cols.ColsOf(j.Left)
	rCols := cols.ColsOf(j.Right)

	// Condition (1), modulo the equality-equivalence induced by p
	// (the paper's §3.2 example groups the pushed aggregate by
	// o_custkey, which enters the grouping columns through the join
	// equality with c_custkey): every predicate conjunct that touches
	// R columns must be a column equality R-col = S-col; the equated
	// R columns join the pushed grouping columns, so each preserved
	// row matches at most one value combination per original group.
	var eqRCols algebra.ColSet
	for _, c := range algebra.Conjuncts(j.On) {
		read := algebra.ScalarCols(c)
		if !read.Intersects(rCols) {
			continue // S-only conjunct: group-independent filter
		}
		cmp, ok := c.(*algebra.Cmp)
		if !ok || cmp.Op != algebra.CmpEq {
			if read.Intersection(rCols).SubsetOf(gb.GroupCols) {
				continue // literal condition (1) holds for this conjunct
			}
			return nil, false
		}
		l, lok := cmp.L.(*algebra.ColRef)
		r, rok := cmp.R.(*algebra.ColRef)
		if !lok || !rok {
			if read.Intersection(rCols).SubsetOf(gb.GroupCols) {
				continue
			}
			return nil, false
		}
		rc, sc := l.Col, r.Col
		if !rCols.Contains(rc) {
			rc, sc = sc, rc
		}
		if !rCols.Contains(rc) || !sCols.Contains(sc) {
			if read.Intersection(rCols).SubsetOf(gb.GroupCols) {
				continue
			}
			return nil, false
		}
		eqRCols.Add(rc)
	}
	// Condition (2): key(S) ⊆ A.
	sKey, ok := algebra.KeyCols(j.Left)
	if !ok || !sKey.SubsetOf(gb.GroupCols) {
		return nil, false
	}
	// Condition (3): aggregate args over R only.
	for _, a := range gb.Aggs {
		if a.Arg != nil && !algebra.ScalarCols(a.Arg).SubsetOf(rCols) {
			return nil, false
		}
		if a.Func == algebra.AggCountStar {
			// count(*) counts joined rows, which depends on both sides;
			// pushing it below requires the identity-(9)-style probe.
			// Redirect to a non-nullable column of R.
			if _, ok := pickNotNull(md, cols, j.Right); !ok {
				return nil, false
			}
		}
	}

	innerGroup := gb.GroupCols.Intersection(rCols).Union(eqRCols)
	aggs := make([]algebra.AggItem, len(gb.Aggs))
	for i, a := range gb.Aggs {
		aggs[i] = a
		if a.Func == algebra.AggCountStar {
			probe, _ := pickNotNull(md, cols, j.Right)
			aggs[i].Func = algebra.AggCount
			aggs[i].Arg = &algebra.ColRef{Col: probe}
		}
	}

	if j.Kind == algebra.InnerJoin {
		ngb := &algebra.GroupBy{Kind: algebra.VectorGroupBy, Input: j.Right,
			GroupCols: innerGroup, Aggs: aggs}
		return &algebra.Join{Kind: j.Kind, Left: j.Left, Right: ngb, On: j.On}, true
	}

	// Outerjoin (§3.2): unmatched preserved rows must expose agg(∅).
	// NULL-on-empty aggregates get that for free from the padding; the
	// others (counts) need the compensating project π_c.
	needComp := false
	for _, a := range gb.Aggs {
		if !a.Func.NullOnEmpty() {
			needComp = true
		}
	}
	inner := make([]algebra.AggItem, len(aggs))
	compSub := map[algebra.ColID]algebra.ColID{}
	for i, a := range aggs {
		inner[i] = a
		if !a.Func.NullOnEmpty() {
			// compute into a fresh column; project restores the ID
			fresh := md.DerivedColumn(a.Col, "_pre",
				algebra.ColumnMeta{Alias: md.Alias(a.Col) + "_pre", Type: md.Type(a.Col)})
			inner[i].Col = fresh
			compSub[a.Col] = fresh
		}
	}
	ngb := &algebra.GroupBy{Kind: algebra.VectorGroupBy, Input: j.Right,
		GroupCols: innerGroup, Aggs: inner}
	join := &algebra.Join{Kind: algebra.LeftOuterJoin, Left: j.Left, Right: ngb, On: j.On}
	if !needComp {
		return join, true
	}
	proj := &algebra.Project{Input: join}
	outCols := cols.ColsOf(join)
	outCols.ForEach(func(c algebra.ColID) {
		if _, isComp := compSub[c]; !isComp {
			proj.Passthrough.Add(c)
		}
	})
	for _, a := range gb.Aggs { // in aggregate order: the plan text must not depend on map iteration
		fresh, isComp := compSub[a.Col]
		if !isComp {
			continue
		}
		proj.Passthrough.Remove(fresh)
		proj.Items = append(proj.Items, algebra.ProjItem{
			Col: a.Col,
			Expr: &algebra.Case{
				Whens: []algebra.When{{
					Cond: &algebra.IsNull{Arg: &algebra.ColRef{Col: fresh}},
					Then: &algebra.Const{Val: types.NewInt(0)},
				}},
				Else: &algebra.ColRef{Col: fresh},
			},
		})
	}
	return proj, true
}

// TryPullGroupByAboveJoin implements the inverse §3.1 reorder: for
// S ⋈p (G(A,F) R) it delays aggregation,
//
//	G(A ∪ columns(S), F)(S ⋈p R)
//
// legal iff S has a key (included in the new grouping columns) and the
// join predicate does not use aggregate results.
func TryPullGroupByAboveJoin(md *algebra.Metadata, cols algebra.ColsOf, j *algebra.Join) (algebra.Rel, bool) {
	if j.Kind != algebra.InnerJoin {
		return nil, false
	}
	gb, ok := j.Right.(*algebra.GroupBy)
	if !ok || gb.Kind != algebra.VectorGroupBy {
		return nil, false
	}
	if _, ok := algebra.KeyCols(j.Left); !ok {
		return nil, false
	}
	var aggCols algebra.ColSet
	for _, a := range gb.Aggs {
		aggCols.Add(a.Col)
	}
	if j.On != nil && algebra.ScalarCols(j.On).Intersects(aggCols) {
		return nil, false
	}
	nj := &algebra.Join{Kind: algebra.InnerJoin, Left: j.Left, Right: gb.Input, On: j.On}
	return &algebra.GroupBy{
		Kind:      algebra.VectorGroupBy,
		Input:     nj,
		GroupCols: gb.GroupCols.Union(cols.ColsOf(j.Left)),
		Aggs:      gb.Aggs,
	}, true
}

// TryPushSemiJoinBelowGroupBy implements the §3.1 semijoin reorder:
// (G(A,F) R) ⋉p S  =  G(A,F)(R ⋉p S)  iff p does not use aggregate
// results and every non-S column of p is (functionally determined by)
// a grouping column. The same condition covers antisemijoin.
func TryPushSemiJoinBelowGroupBy(md *algebra.Metadata, cols algebra.ColsOf, j *algebra.Join) (algebra.Rel, bool) {
	if j.Kind != algebra.SemiJoin && j.Kind != algebra.AntiSemiJoin {
		return nil, false
	}
	gb, ok := j.Left.(*algebra.GroupBy)
	if !ok || gb.Kind != algebra.VectorGroupBy {
		return nil, false
	}
	sCols := cols.ColsOf(j.Right)
	var aggCols algebra.ColSet
	for _, a := range gb.Aggs {
		aggCols.Add(a.Col)
	}
	if j.On != nil {
		pc := algebra.ScalarCols(j.On)
		if pc.Intersects(aggCols) {
			return nil, false
		}
		if !pc.Difference(sCols).SubsetOf(gb.GroupCols) {
			return nil, false
		}
	}
	nj := &algebra.Join{Kind: j.Kind, Left: gb.Input, Right: j.Right, On: j.On}
	return &algebra.GroupBy{Kind: gb.Kind, Input: nj, GroupCols: gb.GroupCols, Aggs: gb.Aggs}, true
}

// TrySemiJoinToJoinDistinct implements the §2.4 semijoin execution
// strategy: "we consider execution as join followed by GroupBy
// (distincting), which follows from the definition of semijoin". The
// resulting GroupBy is itself subject to the §3 reorderings, covering
// the magic-set-style semijoin strategies of Pirahesh et al. A key of
// the left input (manufactured if necessary) keeps duplicate left rows
// distinct through the grouping.
func TrySemiJoinToJoinDistinct(md *algebra.Metadata, cols algebra.ColsOf, j *algebra.Join) (algebra.Rel, bool) {
	if j.Kind != algebra.SemiJoin {
		return nil, false
	}
	left := keyedLeft(md, j.Left)
	inner := &algebra.Join{Kind: algebra.InnerJoin, Left: left, Right: j.Right, On: j.On}
	if inner.On == nil {
		inner.Kind = algebra.CrossJoin
	}
	return &algebra.GroupBy{
		Kind:      algebra.VectorGroupBy,
		Input:     inner,
		GroupCols: cols.ColsOf(left),
	}, true
}

// TryPushSelectBelowJoin moves the conjuncts of a selection that read one
// join input only onto that input. Normalization leaves no such
// selection; one arises when a GroupBy under a selection on its
// aggregate moves below a join, and the selection should follow it:
// the spelling of a query that aggregates in a derived table has it
// there from the start. Any join variant lets a filter on its left
// (preserved) input through; only an inner or cross join one on its
// right.
func TryPushSelectBelowJoin(cols algebra.ColsOf, s *algebra.Select) (algebra.Rel, bool) {
	j, ok := s.Input.(*algebra.Join)
	if !ok {
		return nil, false
	}
	lCols, rCols := cols.ColsOf(j.Left), cols.ColsOf(j.Right)
	var left, right, rest []algebra.Scalar
	for _, c := range algebra.Conjuncts(s.Filter) {
		switch read := algebra.ScalarCols(c); {
		case read.Empty() || algebra.HasSubquery(c):
			rest = append(rest, c)
		case read.SubsetOf(lCols):
			left = append(left, c)
		case read.SubsetOf(rCols) && j.Kind.InnerOrCross():
			right = append(right, c)
		default:
			rest = append(rest, c)
		}
	}
	if len(left)+len(right) == 0 {
		return nil, false
	}
	nj := *j
	nj.Left, nj.Right = selectOver(j.Left, left), selectOver(j.Right, right)
	return selectOver(&nj, rest), true
}

// selectOver filters r by conjs, if there are any.
func selectOver(r algebra.Rel, conjs []algebra.Scalar) algebra.Rel {
	if len(conjs) == 0 {
		return r
	}
	var f algebra.Scalar = &algebra.And{Args: conjs}
	if len(conjs) == 1 {
		f = conjs[0]
	}
	return &algebra.Select{Input: r, Filter: f}
}
