package core

import (
	"fmt"

	"orthoq/internal/algebra"
	"orthoq/internal/sql/types"
)

// IntroduceApplies removes the mutual recursion between relational and
// scalar execution (paper §2.2): every subquery nested in a scalar
// expression is computed beforehand through an Apply operator, and the
// scalar utilization is replaced by a column reference. Boolean-valued
// subqueries in conjunct position become semijoin/antisemijoin applies
// (paper §2.4); elsewhere they are rewritten through scalar count
// aggregates. Scalar-valued subqueries that may return more than one
// row are guarded by Max1Row unless keys prove at most one row (class
// 3 handling, §2.4).
func IntroduceApplies(md *algebra.Metadata, r algebra.Rel) (algebra.Rel, error) {
	var firstErr error
	out := transformUp(r, func(n algebra.Rel) algebra.Rel {
		if firstErr != nil {
			return n
		}
		nn, err := introduceAt(md, n)
		if err != nil {
			firstErr = err
			return n
		}
		return nn
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

func introduceAt(md *algebra.Metadata, n algebra.Rel) (algebra.Rel, error) {
	switch t := n.(type) {
	case *algebra.Select:
		if !algebra.HasSubquery(t.Filter) {
			return n, nil
		}
		return hoistSelect(md, t), nil
	case *algebra.Project:
		need := false
		for _, it := range t.Items {
			if algebra.HasSubquery(it.Expr) {
				need = true
				break
			}
		}
		if !need {
			return n, nil
		}
		return hoistProject(md, t), nil
	case *algebra.Join:
		if t.On != nil && algebra.HasSubquery(t.On) {
			return nil, fmt.Errorf("core: subqueries in JOIN ON conditions are not supported")
		}
	case *algebra.GroupBy:
		for _, a := range t.Aggs {
			if a.Arg != nil && algebra.HasSubquery(a.Arg) {
				return nil, fmt.Errorf("core: subqueries in aggregate arguments are not supported")
			}
		}
	case *algebra.Values:
		for _, row := range t.Rows {
			for _, e := range row {
				if algebra.HasSubquery(e) {
					return nil, fmt.Errorf("core: subqueries in VALUES are not supported")
				}
			}
		}
	}
	return n, nil
}

// hoistSelect handles the paper's special case: a relational select
// whose predicate conjuncts include existential subqueries becomes
// Apply-semijoin / Apply-antisemijoin, splitting the select as needed.
// Remaining conjuncts with scalar subqueries are computed via Apply.
func hoistSelect(md *algebra.Metadata, sel *algebra.Select) algebra.Rel {
	input := sel.Input
	var remaining []algebra.Scalar
	for _, c := range algebra.Conjuncts(sel.Filter) {
		c := pushNotIntoSubquery(c)
		switch t := c.(type) {
		case *algebra.Exists:
			kind := algebra.SemiJoin
			if t.Negate {
				kind = algebra.AntiSemiJoin
			}
			input = &algebra.Apply{Kind: kind, Left: input, Right: t.Input}
			continue
		case *algebra.Quantified:
			input = quantifiedToApply(input, t)
			continue
		}
		if algebra.HasSubquery(c) {
			c, input = hoistScalar(md, c, input)
		}
		remaining = append(remaining, c)
	}
	if len(remaining) == 0 {
		return input
	}
	return &algebra.Select{Input: input, Filter: algebra.ConjoinAll(remaining...)}
}

// pushNotIntoSubquery rewrites NOT EXISTS / NOT (x op ANY/ALL) into the
// dual subquery form so the conjunct cases apply.
func pushNotIntoSubquery(c algebra.Scalar) algebra.Scalar {
	nt, ok := c.(*algebra.Not)
	if !ok {
		return c
	}
	switch inner := nt.Arg.(type) {
	case *algebra.Exists:
		return &algebra.Exists{Input: inner.Input, Negate: !inner.Negate}
	case *algebra.Quantified:
		// NOT (x op ANY E) == x op' ALL E and dually, with op' the
		// complement comparison. (In WHERE position UNKNOWN and FALSE
		// both reject the row, so the 3VL subtlety of NOT is absorbed
		// by the quantifier translation below.)
		return &algebra.Quantified{
			Op: inner.Op.Negate(), All: !inner.All,
			Arg: inner.Arg, Input: inner.Input, Col: inner.Col,
		}
	}
	return c
}

// quantifiedToApply translates a conjunct-position quantified
// comparison into semijoin/antisemijoin Apply with a predicate that is
// exact under SQL three-valued logic:
//
//	x op ANY E  -> R ApplySemi E on (x op v)
//	x op ALL E  -> R ApplyAnti E on (NOT(x op v) OR x IS NULL OR v IS NULL)
//
// For ALL, a row survives only when no inner row makes the comparison
// false *or unknown* — which is exactly SQL's x op ALL (e.g. NOT IN
// filters the outer row whenever the subquery yields any NULL).
func quantifiedToApply(input algebra.Rel, q *algebra.Quantified) algebra.Rel {
	v := &algebra.ColRef{Col: q.Col}
	if !q.All {
		return &algebra.Apply{
			Kind: algebra.SemiJoin, Left: input, Right: q.Input,
			On: &algebra.Cmp{Op: q.Op, L: q.Arg, R: v},
		}
	}
	on := &algebra.Or{Args: []algebra.Scalar{
		&algebra.Not{Arg: &algebra.Cmp{Op: q.Op, L: q.Arg, R: v}},
		&algebra.IsNull{Arg: q.Arg},
		&algebra.IsNull{Arg: v},
	}}
	return &algebra.Apply{Kind: algebra.AntiSemiJoin, Left: input, Right: q.Input, On: on}
}

// hoistProject computes item subqueries below the projection.
func hoistProject(md *algebra.Metadata, p *algebra.Project) algebra.Rel {
	input := p.Input
	items := make([]algebra.ProjItem, len(p.Items))
	for i, it := range p.Items {
		items[i] = it
		if !algebra.HasSubquery(it.Expr) {
			continue
		}
		items[i].Expr, input = hoistScalar(md, it.Expr, input)
	}
	return &algebra.Project{Input: input, Passthrough: p.Passthrough, Items: items}
}

// hoistScalar rewrites every relational node inside the scalar into a
// column computed by an Apply stacked onto input, returning the
// rewritten scalar and the extended input.
func hoistScalar(md *algebra.Metadata, s algebra.Scalar, input algebra.Rel) (algebra.Scalar, algebra.Rel) {
	// guard, when set, is the condition under which the current scalar
	// position is actually evaluated (conditional scalar execution,
	// paper §2.4): hoisted subqueries are wrapped in a Select on it so
	// dead branches contribute empty (NULL) results and cannot raise
	// spurious Max1Row errors.
	var guard algebra.Scalar
	var rewrite func(algebra.Scalar) algebra.Scalar
	rewrite = func(x algebra.Scalar) algebra.Scalar {
		switch t := x.(type) {
		case *algebra.Subquery:
			sub := t.Input
			if guard != nil {
				sub = &algebra.Select{Input: sub, Filter: guard}
			}
			input = applyScalarSubquery(md, input, sub)
			return &algebra.ColRef{Col: t.Col}
		case *algebra.Exists:
			// General-position EXISTS: rewrite as a scalar count
			// aggregate compared with zero (paper §2.4).
			cnt := md.AddColumn("cnt", types.Int)
			gb := &algebra.GroupBy{
				Kind:  algebra.ScalarGroupBy,
				Input: t.Input,
				Aggs:  []algebra.AggItem{{Col: cnt, Func: algebra.AggCountStar}},
			}
			input = &algebra.Apply{Kind: algebra.CrossJoin, Left: input, Right: gb}
			op := algebra.CmpGt
			if t.Negate {
				op = algebra.CmpEq
			}
			return &algebra.Cmp{Op: op,
				L: &algebra.ColRef{Col: cnt},
				R: &algebra.Const{Val: types.NewInt(0)}}
		case *algebra.Quantified:
			// General-position quantifier: count matching (ANY) or
			// violating (ALL) rows and compare with zero.
			inner := rewrite(t.Arg)
			pred := &algebra.Cmp{Op: t.Op, L: inner, R: &algebra.ColRef{Col: t.Col}}
			var filt algebra.Scalar = pred
			op := algebra.CmpGt // ANY: matches > 0
			if t.All {
				filt = &algebra.Not{Arg: pred}
				op = algebra.CmpEq // ALL: violations == 0
			}
			cnt := md.AddColumn("cnt", types.Int)
			gb := &algebra.GroupBy{
				Kind:  algebra.ScalarGroupBy,
				Input: &algebra.Select{Input: t.Input, Filter: filt},
				Aggs:  []algebra.AggItem{{Col: cnt, Func: algebra.AggCountStar}},
			}
			input = &algebra.Apply{Kind: algebra.CrossJoin, Left: input, Right: gb}
			return &algebra.Cmp{Op: op,
				L: &algebra.ColRef{Col: cnt},
				R: &algebra.Const{Val: types.NewInt(0)}}
		case *algebra.Case:
			// Conditional scalar execution (paper §2.4): a subquery in a
			// THEN/ELSE arm must not be evaluated when its branch is not
			// taken (it could raise a spurious Max1Row error). We
			// implement the paper's "modified Apply with conditional
			// execution" by guarding each arm's hoisted subqueries with
			// "this branch is taken": prior conditions not TRUE and (for
			// WHEN arms) this condition TRUE. Dead branches then
			// contribute empty subquery results (padded NULL), which the
			// CASE never reads. Conditions themselves are rewritten
			// eagerly (they cannot raise Max1Row through EXISTS/IN, and
			// scalar subqueries in conditions inherit the outer guard).
			outer := guard
			var whens []algebra.When
			var priorNotTrue []algebra.Scalar
			for _, w := range t.Whens {
				cond := rewrite(w.Cond)
				armGuard := append(append([]algebra.Scalar{outer}, priorNotTrue...), cond)
				guard = algebra.ConjoinAll(armGuard...)
				then := rewrite(w.Then)
				guard = outer
				whens = append(whens, algebra.When{Cond: cond, Then: then})
				priorNotTrue = append(priorNotTrue, notTrue(cond))
			}
			var els algebra.Scalar
			if t.Else != nil {
				guard = algebra.ConjoinAll(append([]algebra.Scalar{outer}, priorNotTrue...)...)
				els = rewrite(t.Else)
				guard = outer
			}
			return &algebra.Case{Whens: whens, Else: els}
		}
		return algebra.MapChildren(x, rewrite)
	}
	out := rewrite(s) // extends input, so it runs before input is read
	return out, input
}

// notTrue builds "c IS NOT TRUE" (c is FALSE or UNKNOWN), the branch
// fall-through condition under SQL three-valued logic.
func notTrue(c algebra.Scalar) algebra.Scalar {
	return &algebra.Or{Args: []algebra.Scalar{
		&algebra.Not{Arg: c},
		&algebra.IsNull{Arg: c},
	}}
}

// applyScalarSubquery attaches a scalar-valued subquery to input:
//
//   - produces exactly one row (scalar aggregate): cross Apply;
//   - at most one row (proved by keys): left-outer Apply, NULL-padding
//     the empty case;
//   - otherwise: left-outer Apply over Max1Row, preserving SQL's
//     run-time error semantics (class 3, §2.4).
func applyScalarSubquery(md *algebra.Metadata, input, sub algebra.Rel) algebra.Rel {
	if ExactlyOneRow(sub) {
		return &algebra.Apply{Kind: algebra.CrossJoin, Left: input, Right: sub}
	}
	if !AtMostOneRow(sub) {
		sub = &algebra.Max1Row{Input: sub}
	}
	return &algebra.Apply{Kind: algebra.LeftOuterJoin, Left: input, Right: sub}
}

// ExactlyOneRow reports whether the expression returns exactly one row
// for every parameter binding (scalar aggregation does, §1.1).
func ExactlyOneRow(r algebra.Rel) bool {
	switch t := r.(type) {
	case *algebra.GroupBy:
		return t.Kind == algebra.ScalarGroupBy
	case *algebra.Project:
		return ExactlyOneRow(t.Input)
	case *algebra.Values:
		return len(t.Rows) == 1
	case *algebra.RowNumber:
		return ExactlyOneRow(t.Input)
	}
	return false
}

// AtMostOneRow reports whether the expression can be proved to return
// at most one row, either structurally (MaxCardOne) or because
// equality predicates bind a key of the underlying expression — the
// paper's "the compiler can detect this from information about keys",
// which elides Max1Row.
func AtMostOneRow(r algebra.Rel) bool {
	if algebra.MaxCardOne(r) {
		return true
	}
	switch t := r.(type) {
	case *algebra.Project:
		return AtMostOneRow(t.Input)
	case *algebra.Sort:
		return AtMostOneRow(t.Input)
	case *algebra.Top:
		return t.N <= 1 || AtMostOneRow(t.Input)
	case *algebra.Select:
		key, ok := algebra.KeyCols(t.Input)
		if ok && !key.Empty() {
			inCols := algebra.OutputCols(t.Input)
			var bound algebra.ColSet
			for _, c := range algebra.Conjuncts(t.Filter) {
				cmp, ok := c.(*algebra.Cmp)
				if !ok || cmp.Op != algebra.CmpEq {
					continue
				}
				if cr, ok := cmp.L.(*algebra.ColRef); ok && inCols.Contains(cr.Col) &&
					!algebra.ScalarCols(cmp.R).Intersects(inCols) {
					bound.Add(cr.Col)
				}
				if cr, ok := cmp.R.(*algebra.ColRef); ok && inCols.Contains(cr.Col) &&
					!algebra.ScalarCols(cmp.L).Intersects(inCols) {
					bound.Add(cr.Col)
				}
			}
			if key.SubsetOf(bound) {
				return true
			}
		}
		return AtMostOneRow(t.Input)
	}
	return false
}
