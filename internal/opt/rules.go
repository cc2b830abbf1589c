package opt

import (
	"slices"

	"orthoq/internal/algebra"
	"orthoq/internal/exec"
	"orthoq/internal/sql/catalog"
)

// commuteJoin swaps the inputs of an inner or cross join.
func commuteJoin(j *algebra.Join) (algebra.Rel, bool) {
	if j.Kind != algebra.InnerJoin && j.Kind != algebra.CrossJoin {
		return nil, false
	}
	return &algebra.Join{Kind: j.Kind, Left: j.Right, Right: j.Left, On: j.On}, true
}

// rotateJoin reassociates a join over a join, redistributing predicate
// conjuncts by the columns they need: with the lower join as input 0,
// (A ⋈ B) ⋈ C becomes A ⋈ (B ⋈ C); as input 1, A ⋈ (B ⋈ C) becomes
// (A ⋈ B) ⋈ C. innerCols is what the inputs of the new lower join
// output.
//
// A rotation may move a cross product but not make one: the new lower
// join has a predicate, and the upper one lacks one only if one of the
// joins it rewrites did. The cross products a query spells stay in the
// space (Q2's part × supplier is the outer side of a cheap plan); the 3ⁿ
// shapes of joining n relations in an order their predicates do not
// connect are left out.
func rotateJoin(j *algebra.Join, slot int, innerCols algebra.ColSet) (algebra.Rel, bool) {
	lower, ok := [2]algebra.Rel{j.Left, j.Right}[slot].(*algebra.Join)
	if !ok || !innerOrCross(j.Kind) || !innerOrCross(lower.Kind) {
		return nil, false
	}
	inner, outer := redistribute(lower.On, j.On, innerCols)
	if len(inner) == 0 || len(outer) == 0 && j.Kind != algebra.CrossJoin && lower.Kind != algebra.CrossJoin {
		return nil, false
	}
	up := &algebra.Join{On: onFor(outer)}
	if len(outer) == 0 {
		up.Kind = algebra.CrossJoin
	}
	if slot == 0 {
		up.Left, up.Right = lower.Left, &algebra.Join{Left: lower.Right, Right: j.Right, On: onFor(inner)}
	} else {
		up.Left, up.Right = &algebra.Join{Left: j.Left, Right: lower.Left, On: onFor(inner)}, lower.Right
	}
	return up, true
}

// redistribute deals the conjuncts of two joins being reassociated to
// the new inner join, whose inputs produce innerCols, and the new outer
// one: a conjunct goes as low as its columns allow.
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
func redistribute(on1, on2 algebra.Scalar, innerCols algebra.ColSet) (inner, outer []algebra.Scalar) {
	// The equated columns, each with the number of the class it is in
	// and the conjunct that mentions it. A query equates a handful of
	// columns: they are searched linearly.
	type member struct {
		class int
		col   algebra.ColID
	}
	var mbuf [8]member
	eq := mbuf[:0]
	find := func(c algebra.ColID) int {
		return slices.IndexFunc(eq, func(m member) bool { return m.col == c })
	}
	var cbuf [8]algebra.Scalar
	conjs := algebra.AppendConjuncts(algebra.AppendConjuncts(cbuf[:0], on1), on2)
	// One array holds both results: each gets at most every conjunct.
	both := make([]algebra.Scalar, 2*len(conjs))
	inner, outer = both[:0:len(conjs)], both[len(conjs):len(conjs)]
	var ebuf [8]algebra.Scalar
	equalities := ebuf[:0]
	for _, conj := range conjs {
		if l, r, ok := colEquality(conj); ok {
			equalities = append(equalities, conj)
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
		} else if algebra.ScalarCols(conj).SubsetOf(innerCols) && !algebra.HasSubquery(conj) {
			inner = append(inner, conj)
		} else {
			outer = append(outer, conj)
		}
	}
	slices.SortFunc(eq, func(a, b member) int {
		if a.class != b.class {
			return a.class - b.class
		}
		return int(a.col - b.col)
	})
	// equal is the conjunct a = b: the query's own if it has one.
	equal := func(a, b algebra.ColID) algebra.Scalar {
		for _, conj := range equalities {
			if l, r, _ := colEquality(conj); l == a && r == b || l == b && r == a {
				return conj
			}
		}
		return &algebra.Cmp{Op: algebra.CmpEq, L: &algebra.ColRef{Col: a}, R: &algebra.ColRef{Col: b}}
	}
	var root, in algebra.ColID
	for i, m := range eq {
		if i == 0 || m.class != eq[i-1].class {
			root, in = m.col, 0
		}
		switch {
		case in != 0 && innerCols.Contains(m.col):
			inner = append(inner, equal(in, m.col))
		case m.col != root:
			outer = append(outer, equal(root, m.col))
		}
		if in == 0 && innerCols.Contains(m.col) {
			in = m.col
		}
	}
	return inner, outer
}

// colEquality matches a conjunct equating two different columns.
func colEquality(conj algebra.Scalar) (l, r algebra.ColID, ok bool) {
	cmp, ok := conj.(*algebra.Cmp)
	if !ok || cmp.Op != algebra.CmpEq {
		return 0, 0, false
	}
	lc, lok := cmp.L.(*algebra.ColRef)
	rc, rok := cmp.R.(*algebra.ColRef)
	if !lok || !rok || lc.Col == rc.Col {
		return 0, 0, false
	}
	return lc.Col, rc.Col, true
}

func innerOrCross(k algebra.JoinKind) bool {
	return k == algebra.InnerJoin || k == algebra.CrossJoin
}

// onFor is the join predicate of the conjuncts conjs, which are flat
// already (no conjunction or TRUE among them).
func onFor(conjs []algebra.Scalar) algebra.Scalar {
	switch len(conjs) {
	case 0:
		return nil
	case 1:
		return conjs[0]
	}
	return &algebra.And{Args: conjs}
}

// pushSelectBelowJoin moves the conjuncts of a selection that read one
// join input only onto that input. Normalization leaves no such
// selection; one arises when a GroupBy under a selection on its
// aggregate moves below a join, and the selection should follow it:
// the spelling of a query that aggregates in a derived table has it
// there from the start. Any join variant lets a filter on its left
// (preserved) input through; only an inner or cross join one on its
// right.
func pushSelectBelowJoin(s *algebra.Select) (algebra.Rel, bool) {
	j, ok := s.Input.(*algebra.Join)
	if !ok {
		return nil, false
	}
	lCols, rCols := algebra.OutputCols(j.Left), algebra.OutputCols(j.Right)
	var left, right, rest []algebra.Scalar
	for _, c := range algebra.Conjuncts(s.Filter) {
		switch cols := algebra.ScalarCols(c); {
		case cols.Empty() || algebra.HasSubquery(c):
			rest = append(rest, c)
		case cols.SubsetOf(lCols):
			left = append(left, c)
		case cols.SubsetOf(rCols) && innerOrCross(j.Kind):
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
	return &algebra.Select{Input: r, Filter: onFor(conjs)}
}

// joinToApply reintroduces correlated execution (paper §4: "the
// simplest and most common being index-lookup-join"): a join whose
// right side is a base-table access that would seek an index with the
// left side's columns bound becomes an Apply that seeks it once per
// outer row.
func joinToApply(cat *catalog.Catalog, j *algebra.Join) (algebra.Rel, bool) {
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
	if !ok || !exec.Access(tbl, get, algebra.Conjuncts(j.On), algebra.OutputCols(j.Left), nil).Seek() {
		return nil, false
	}
	// Fold the join predicate into a correlated select over the right
	// side so the executor's seek detection picks it up.
	inner := &algebra.Select{Input: j.Right, Filter: j.On}
	return &algebra.Apply{Kind: j.Kind, Left: j.Left, Right: inner}, true
}
