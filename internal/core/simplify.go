package core

import (
	"orthoq/internal/algebra"
)

// Simplify runs the normalization cleanups to a fixpoint: predicate
// pushdown (including the §3.1 filter/GroupBy reorder condition),
// select merging and elimination, projection collapsing, and outerjoin
// simplification. It never changes results, only shapes.
func Simplify(md *algebra.Metadata, r algebra.Rel, opts Options) algebra.Rel {
	text := algebra.FormatRel(md, r)
	for i := 0; i < 64; i++ {
		next := simplifyOnce(md, r, opts)
		nextText := algebra.FormatRel(md, next)
		if nextText == text {
			return next
		}
		r, text = next, nextText
	}
	return r
}

func simplifyOnce(md *algebra.Metadata, r algebra.Rel, opts Options) algebra.Rel {
	if !opts.KeepOuterJoins && !opts.disabled(RuleSimplifyOuterJoin) {
		r = simplifyOuterJoins(md, r, opts)
	}
	return transformUp(r, func(n algebra.Rel) algebra.Rel {
		switch t := n.(type) {
		case *algebra.Select:
			return simplifySelect(md, t)
		case *algebra.Project:
			return simplifyProjectNode(t)
		case *algebra.Join:
			if t.Kind == algebra.CrossJoin && t.On != nil && !algebra.IsTrueConst(t.On) {
				nj := *t
				nj.Kind = algebra.InnerJoin
				return &nj
			}
			return pushOnConjunctsDown(t)
		}
		return n
	})
}

func simplifySelect(md *algebra.Metadata, sel *algebra.Select) algebra.Rel {
	if sel.Filter == nil || algebra.IsTrueConst(sel.Filter) {
		return sel.Input
	}
	switch in := sel.Input.(type) {
	case *algebra.Select:
		return &algebra.Select{Input: in.Input, Filter: algebra.ConjoinAll(in.Filter, sel.Filter)}

	case *algebra.Project:
		// σp(π E) = π(σ(p') E) with item definitions inlined. Valid
		// only when no item is a guard (CASE) introduced by a pulled
		// outer-apply projection — inlining those is still correct
		// because substitution preserves the CASE.
		if algebra.HasSubquery(sel.Filter) {
			return sel
		}
		sub := make(map[algebra.ColID]algebra.Scalar, len(in.Items))
		for _, it := range in.Items {
			sub[it.Col] = it.Expr
		}
		pushed := substituteCols(sel.Filter, sub)
		return &algebra.Project{
			Input:       &algebra.Select{Input: in.Input, Filter: pushed},
			Passthrough: in.Passthrough,
			Items:       in.Items,
		}

	case *algebra.GroupBy:
		// §3.1: a filter moves below a GroupBy iff its columns are
		// functionally determined by the grouping columns; we use the
		// sufficient condition cols ⊆ grouping columns.
		if in.Kind != algebra.VectorGroupBy {
			return sel
		}
		var below, above []algebra.Scalar
		for _, c := range algebra.Conjuncts(sel.Filter) {
			if !algebra.HasSubquery(c) && algebra.ScalarCols(c).SubsetOf(in.GroupCols) {
				below = append(below, c)
			} else {
				above = append(above, c)
			}
		}
		if len(below) == 0 {
			return sel
		}
		ngb := *in
		ngb.Input = &algebra.Select{Input: in.Input, Filter: algebra.ConjoinAll(below...)}
		if len(above) == 0 {
			return &ngb
		}
		return &algebra.Select{Input: &ngb, Filter: algebra.ConjoinAll(above...)}

	case *algebra.Join:
		return pushSelectIntoJoin(sel, in)

	case *algebra.Apply:
		// Push left-only conjuncts below the apply (they do not involve
		// the parameterized side).
		leftCols := algebra.OutputCols(in.Left)
		var toLeft, stay []algebra.Scalar
		for _, c := range algebra.Conjuncts(sel.Filter) {
			if !algebra.HasSubquery(c) && algebra.ScalarCols(c).SubsetOf(leftCols) {
				toLeft = append(toLeft, c)
			} else {
				stay = append(stay, c)
			}
		}
		if len(toLeft) == 0 {
			return sel
		}
		na := *in
		na.Left = &algebra.Select{Input: in.Left, Filter: algebra.ConjoinAll(toLeft...)}
		if len(stay) == 0 {
			return &na
		}
		return &algebra.Select{Input: &na, Filter: algebra.ConjoinAll(stay...)}
	}
	return sel
}

func pushSelectIntoJoin(sel *algebra.Select, j *algebra.Join) algebra.Rel {
	leftCols := algebra.OutputCols(j.Left)
	rightCols := algebra.OutputCols(j.Right)
	var toLeft, toRight, toOn, stay []algebra.Scalar
	for _, c := range algebra.Conjuncts(sel.Filter) {
		if algebra.HasSubquery(c) {
			stay = append(stay, c)
			continue
		}
		cols := algebra.ScalarCols(c)
		switch {
		case cols.SubsetOf(leftCols):
			toLeft = append(toLeft, c)
		case cols.SubsetOf(rightCols) && j.Kind != algebra.LeftOuterJoin:
			// For LOJ a right-only filter above is NOT the same as
			// below (it also eliminates padded rows); keep it above.
			toRight = append(toRight, c)
		case j.Kind.InnerOrCross():
			toOn = append(toOn, c)
		default:
			stay = append(stay, c)
		}
	}
	if len(toLeft) == 0 && len(toRight) == 0 && len(toOn) == 0 {
		return sel
	}
	nj := *j
	if len(toLeft) > 0 {
		nj.Left = &algebra.Select{Input: j.Left, Filter: algebra.ConjoinAll(toLeft...)}
	}
	if len(toRight) > 0 {
		nj.Right = &algebra.Select{Input: j.Right, Filter: algebra.ConjoinAll(toRight...)}
	}
	if len(toOn) > 0 {
		nj.On = algebra.ConjoinAll(append(toOn, j.On)...)
		if nj.Kind == algebra.CrossJoin {
			nj.Kind = algebra.InnerJoin
		}
	}
	if len(stay) == 0 {
		return &nj
	}
	return &algebra.Select{Input: &nj, Filter: algebra.ConjoinAll(stay...)}
}

// pushOnConjunctsDown moves single-sided ON conjuncts into the join
// inputs. Right-only conjuncts push into the right side for every join
// variant (they only decide which inner rows can match). Left-only
// conjuncts push into the left side for inner joins only — for a left
// outerjoin they merely turn matches into NULL padding, and for
// semi/antijoins they decide membership, so they must stay in the ON.
func pushOnConjunctsDown(j *algebra.Join) algebra.Rel {
	if j.On == nil || algebra.IsTrueConst(j.On) {
		return j
	}
	leftCols := algebra.OutputCols(j.Left)
	rightCols := algebra.OutputCols(j.Right)
	var toLeft, toRight, keep []algebra.Scalar
	for _, c := range algebra.Conjuncts(j.On) {
		if algebra.HasSubquery(c) {
			keep = append(keep, c)
			continue
		}
		cols := algebra.ScalarCols(c)
		switch {
		case cols.SubsetOf(rightCols) && !cols.Empty():
			toRight = append(toRight, c)
		case cols.SubsetOf(leftCols) && !cols.Empty() && j.Kind == algebra.InnerJoin:
			toLeft = append(toLeft, c)
		default:
			keep = append(keep, c)
		}
	}
	if len(toLeft) == 0 && len(toRight) == 0 {
		return j
	}
	nj := *j
	if len(toLeft) > 0 {
		nj.Left = &algebra.Select{Input: j.Left, Filter: algebra.ConjoinAll(toLeft...)}
	}
	if len(toRight) > 0 {
		nj.Right = &algebra.Select{Input: j.Right, Filter: algebra.ConjoinAll(toRight...)}
	}
	if len(keep) == 0 {
		nj.On = nil
		if nj.Kind == algebra.InnerJoin {
			nj.Kind = algebra.CrossJoin
		}
	} else {
		nj.On = algebra.ConjoinAll(keep...)
	}
	return &nj
}

func simplifyProjectNode(p *algebra.Project) algebra.Rel {
	if len(p.Items) == 0 && p.Passthrough.Equals(algebra.OutputCols(p.Input)) {
		return p.Input
	}
	// Merge Project(Project): inline inner items into outer ones.
	in, ok := p.Input.(*algebra.Project)
	if !ok {
		return p
	}
	sub := make(map[algebra.ColID]algebra.Scalar, len(in.Items))
	innerItemCols := algebra.ColSet{}
	for _, it := range in.Items {
		sub[it.Col] = it.Expr
		innerItemCols.Add(it.Col)
	}
	np := &algebra.Project{Input: in.Input}
	for _, it := range p.Items {
		np.Items = append(np.Items, algebra.ProjItem{Col: it.Col, Expr: substituteCols(it.Expr, sub)})
	}
	p.Passthrough.ForEach(func(c algebra.ColID) {
		if innerItemCols.Contains(c) {
			np.Items = append(np.Items, algebra.ProjItem{Col: c, Expr: sub[c]})
		} else {
			np.Passthrough.Add(c)
		}
	})
	return np
}

// Normalize runs the full normalization pipeline of §2 and §4's "query
// normalization" step: Apply introduction, Apply removal, and
// simplification (predicate pushdown, outerjoin→join). The result is
// the paper's normal form: most subqueries turned into join variants.
func Normalize(md *algebra.Metadata, r algebra.Rel, opts Options) (algebra.Rel, error) {
	r, err := IntroduceApplies(md, r)
	if err != nil {
		return nil, err
	}
	r = RemoveApplies(md, r, opts)
	r = Simplify(md, r, opts)
	// Apply removal can expose new opportunities (e.g. selects merged
	// above an apply that later becomes a join); one more round each is
	// cheap and idempotent.
	r = RemoveApplies(md, r, opts)
	r = Simplify(md, r, opts)
	// Constant folding and empty-subexpression detection (§4), then a
	// final cleanup: emptiness can unlock further pushdowns.
	r = FoldConstants(md, r)
	r = Simplify(md, r, opts)
	return r, nil
}
