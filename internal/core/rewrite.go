// Package core implements the paper's orthogonal optimizations:
//
//   - Apply introduction (§2.2): removing the mutual recursion between
//     scalar and relational operators by computing subqueries through
//     the Apply operator.
//   - Apply removal (§2.3, Figure 4 identities (1)–(9)): rewriting
//     correlated execution into joins, outerjoins and GroupBy.
//   - Subquery classification (§2.5) including Max1Row (class 3).
//   - Outerjoin simplification under null-rejecting predicates,
//     including null-rejection derived through GroupBy (§1.2).
//   - GroupBy reordering around filters, joins, semijoins and
//     outerjoins (§3.1–3.2).
//   - LocalGroupBy splitting and pushdown (§3.3).
//   - SegmentApply introduction and join pushdown (§3.4).
//
// Normalization-phase rewrites are driven by Normalize; the reorder
// primitives are exposed as Try* functions consumed by the cost-based
// optimizer in internal/opt.
package core

import (
	"orthoq/internal/algebra"
)

// transformUp rebuilds the tree bottom-up, applying f to every
// relational node after its children (including relational
// subexpressions nested inside scalars) have been transformed.
func transformUp(r algebra.Rel, f func(algebra.Rel) algebra.Rel) algebra.Rel {
	if r == nil {
		return nil
	}
	ins := r.Inputs()
	if len(ins) > 0 {
		newIns := make([]algebra.Rel, len(ins))
		changed := false
		for i, c := range ins {
			newIns[i] = transformUp(c, f)
			if newIns[i] != c {
				changed = true
			}
		}
		if changed {
			r = r.WithInputs(newIns)
		}
	}
	r = rewriteNestedRels(r, func(sub algebra.Rel) algebra.Rel {
		return transformUp(sub, f)
	})
	return f(r)
}

// rewriteNestedRels rewrites relational subexpressions nested inside
// the node's scalar expressions.
func rewriteNestedRels(r algebra.Rel, f func(algebra.Rel) algebra.Rel) algebra.Rel {
	mapScalar := func(s algebra.Scalar) algebra.Scalar {
		if s == nil || !algebra.HasSubquery(s) {
			return s
		}
		return algebra.MapScalarCols(s, nil, f)
	}
	switch t := r.(type) {
	case *algebra.Select:
		if ns := mapScalar(t.Filter); ns != t.Filter {
			n := *t
			n.Filter = ns
			return &n
		}
	case *algebra.Project:
		changed := false
		items := make([]algebra.ProjItem, len(t.Items))
		for i, it := range t.Items {
			items[i] = it
			if ns := mapScalar(it.Expr); ns != it.Expr {
				items[i].Expr = ns
				changed = true
			}
		}
		if changed {
			n := *t
			n.Items = items
			return &n
		}
	case *algebra.Join:
		if ns := mapScalar(t.On); ns != t.On {
			n := *t
			n.On = ns
			return &n
		}
	case *algebra.Apply:
		if ns := mapScalar(t.On); ns != t.On {
			n := *t
			n.On = ns
			return &n
		}
	case *algebra.GroupBy:
		changed := false
		aggs := make([]algebra.AggItem, len(t.Aggs))
		for i, a := range t.Aggs {
			aggs[i] = a
			if a.Arg != nil {
				if ns := mapScalar(a.Arg); ns != a.Arg {
					aggs[i].Arg = ns
					changed = true
				}
			}
		}
		if changed {
			n := *t
			n.Aggs = aggs
			return &n
		}
	}
	return r
}

// substituteCols replaces column references with arbitrary scalar
// expressions (used to inline projection items into predicates when
// pulling a Project through an Apply).
func substituteCols(s algebra.Scalar, sub map[algebra.ColID]algebra.Scalar) algebra.Scalar {
	return algebra.MapScalar(s, func(c algebra.ColID) algebra.Scalar { return sub[c] }, nil)
}
