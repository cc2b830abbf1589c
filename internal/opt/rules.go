package opt

import (
	"slices"

	"orthoq/internal/algebra"
	"orthoq/internal/exec"
	"orthoq/internal/sql/catalog"
)

// commuteJoin swaps the inputs of an inner or cross join.
func commuteJoin(j *algebra.Join) (algebra.Rel, bool) {
	if !j.Kind.InnerOrCross() {
		return nil, false
	}
	return &algebra.Join{Kind: j.Kind, Left: j.Right, Right: j.Left, On: j.On}, true
}

// rotateJoin reassociates a join over a join with the conjuncts
// reassociate dealt: with the lower join as input 0, (A ⋈ B) ⋈ C
// becomes A ⋈ (B ⋈ C); as input 1, A ⋈ (B ⋈ C) becomes (A ⋈ B) ⋈ C.
func rotateJoin(j *algebra.Join, slot int, inner, outer []*conjunct) algebra.Rel {
	lower := [2]algebra.Rel{j.Left, j.Right}[slot].(*algebra.Join)
	up := &algebra.Join{On: onOf(outer)}
	if len(outer) == 0 {
		up.Kind = algebra.CrossJoin
	}
	if slot == 0 {
		up.Left, up.Right = lower.Left, &algebra.Join{Left: lower.Right, Right: j.Right, On: onOf(inner)}
	} else {
		up.Left, up.Right = &algebra.Join{Left: j.Left, Right: lower.Left, On: onOf(inner)}, lower.Right
	}
	return up
}

// conjunct is one conjunct of a join predicate as the memo knows it:
// the scalar, the ID of its key text (algebra.AppendScalarKey; the
// conjuncts printing alike share one), the columns it reads, the
// columns it equates (l != r; l == r == 0 if it is no column equality)
// and whether it holds a subquery.
type conjunct struct {
	s    algebra.Scalar
	id   int32
	cols algebra.ColSet
	l, r algebra.ColID
	sub  bool
}

// reassociate deals the conjuncts of a join of kind over a join of
// lowerKind, the lower one's first, for a rotation whose new lower join
// has inputs producing innerCols. ok is false when the rotation is
// refused.
//
// A rotation may move a cross product but not make one: the new lower
// join has a predicate, and the upper one lacks one only if one of the
// joins it rewrites did. The cross products a query spells stay in the
// space (Q2's part × supplier is the outer side of a cheap plan); the 3ⁿ
// shapes of joining n relations in an order their predicates do not
// connect are left out.
func (m *memo) reassociate(kind, lowerKind algebra.JoinKind, lower, upper []*conjunct, innerCols algebra.ColSet) (inner, outer []*conjunct, ok bool) {
	if !kind.InnerOrCross() || !lowerKind.InnerOrCross() {
		return nil, nil, false
	}
	inner, outer = m.redistribute(lower, upper, innerCols)
	if len(inner) == 0 || len(outer) == 0 && kind != algebra.CrossJoin && lowerKind != algebra.CrossJoin {
		return nil, nil, false
	}
	return inner, outer, true
}

// redistribute deals the conjuncts of two joins being reassociated to
// the new inner join, whose inputs produce innerCols, and the new outer
// one: a conjunct goes as low as its columns allow. The results share
// one buffer of the memo's, good until the next call.
//
// Column equalities are dealt as a set, not one by one. The columns they
// equate fall into classes (a = b ∧ b = c puts a, b, c in one), and a
// class is spelled as a star from its lowest column: inside the inner
// join from the lowest column that join sees, across the outer one from
// the lowest of all. That makes the equalities the transitive closure
// implies available — rotations expose joins the original spelling hid,
// e.g. Q17's l_partkey = l2_partkey, implied through p_partkey, which
// SegmentApply detection needs (Figure 6) — and it spells a class one
// way however the rotation was reached, so the memo sees one join of two
// groups where path-dependent subsets of a = b, b = c, a = c would show
// it many.
func (m *memo) redistribute(lower, upper []*conjunct, innerCols algebra.ColSet) (inner, outer []*conjunct) {
	// The equated columns, each with the number of the class it is in.
	// A query equates a handful of columns: they are searched linearly.
	type member struct {
		class int
		col   algebra.ColID
	}
	var mbuf [8]member
	eq := mbuf[:0]
	find := func(c algebra.ColID) int {
		return slices.IndexFunc(eq, func(e member) bool { return e.col == c })
	}
	var cbuf [8]*conjunct
	conjs := append(append(cbuf[:0], lower...), upper...)
	// Each result gets at most every conjunct.
	n := len(conjs)
	m.dealt = slices.Grow(m.dealt[:0], 2*n)
	inner, outer = m.dealt[:0:n], m.dealt[n:n:2*n]
	var ebuf [8]*conjunct
	equalities := ebuf[:0]
	for _, c := range conjs {
		if l, r := c.l, c.r; l != r {
			equalities = append(equalities, c)
			switch i, k := find(l), find(r); {
			case i < 0 && k < 0:
				eq = append(eq, member{len(eq), l}, member{len(eq), r})
			case i < 0:
				eq = append(eq, member{eq[k].class, l})
			case k < 0:
				eq = append(eq, member{eq[i].class, r})
			case eq[i].class != eq[k].class:
				from, to := eq[k].class, eq[i].class
				for x := range eq {
					if eq[x].class == from {
						eq[x].class = to
					}
				}
			}
		} else if c.cols.SubsetOf(innerCols) && !c.sub {
			inner = append(inner, c)
		} else {
			outer = append(outer, c)
		}
	}
	slices.SortFunc(eq, func(a, b member) int {
		if a.class != b.class {
			return a.class - b.class
		}
		return int(a.col - b.col)
	})
	// equal is the conjunct a = b: the query's own if it has one.
	equal := func(a, b algebra.ColID) *conjunct {
		for _, c := range equalities {
			if c.l == a && c.r == b || c.l == b && c.r == a {
				return c
			}
		}
		return m.equality(a, b)
	}
	var root, in algebra.ColID
	for i, x := range eq {
		if i == 0 || x.class != eq[i-1].class {
			root, in = x.col, 0
		}
		switch {
		case in != 0 && innerCols.Contains(x.col):
			inner = append(inner, equal(in, x.col))
		case x.col != root:
			outer = append(outer, equal(root, x.col))
		}
		if in == 0 && innerCols.Contains(x.col) {
			in = x.col
		}
	}
	return inner, outer
}

// onOf is the join predicate of the conjuncts cs.
func onOf(cs []*conjunct) algebra.Scalar {
	switch len(cs) {
	case 0:
		return nil
	case 1:
		return cs[0].s
	}
	conjs := make([]algebra.Scalar, len(cs))
	for i, c := range cs {
		conjs[i] = c.s
	}
	return &algebra.And{Args: conjs}
}

// joinToApply reintroduces correlated execution (paper §4: "the
// simplest and most common being index-lookup-join"): a join whose
// right side is a base-table access that would seek an index with the
// left side's columns bound becomes an Apply that seeks it once per
// outer row.
func joinToApply(cat *catalog.Catalog, cols algebra.ColsOf, j *algebra.Join) (algebra.Rel, bool) {
	if j.On == nil {
		return nil, false
	}
	switch j.Kind {
	case algebra.InnerJoin, algebra.SemiJoin, algebra.AntiSemiJoin, algebra.LeftOuterJoin:
	default:
		return nil, false
	}
	// Right side must be a (possibly filtered) base table access.
	var get *algebra.Get
	switch rt := j.Right.(type) {
	case *algebra.Get:
		get = rt
	case *algebra.Select:
		if g, ok := rt.Input.(*algebra.Get); ok {
			get = g
		}
	}
	if get == nil {
		return nil, false
	}
	tbl, ok := cat.Table(get.Table)
	if !ok || !exec.Access(tbl, get, algebra.Conjuncts(j.On), cols.ColsOf(j.Left), nil).Seek() {
		return nil, false
	}
	// Fold the join predicate into a correlated select over the right
	// side so the executor's seek detection picks it up.
	inner := &algebra.Select{Input: j.Right, Filter: j.On}
	return &algebra.Apply{Kind: j.Kind, Left: j.Left, Right: inner}, true
}
