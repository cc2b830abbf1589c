package core

import (
	"orthoq/internal/algebra"
)

// TryIntroduceSegmentApply implements §3.4.1: when a join (or
// semijoin/antisemijoin) connects two instances of the same
// expression, one of which may carry an extra aggregate and/or filter
// and/or projection, and the join predicate contains an equality
// between two instances of the same column, the join can execute per
// segment:
//
//	E1 ⋈p wrap(E2)  →  E1 SA_cols  (Seg1 ⋈p wrap(Seg2))
//
// where the segmenting columns are the equated instance columns.
func TryIntroduceSegmentApply(md *algebra.Metadata, cols algebra.ColsOf, j *algebra.Join) (algebra.Rel, bool) {
	switch j.Kind {
	case algebra.InnerJoin, algebra.SemiJoin, algebra.AntiSemiJoin:
	default:
		return nil, false
	}
	if j.On == nil || !instances(j.Kind, j.Left, j.Right) {
		return nil, false
	}
	core2, rebuild := stripWrappers(j.Right)
	remap, ok := matchRels(j.Left, core2)
	if !ok {
		return nil, false
	}
	// Find equality conjuncts between corresponding instance columns.
	leftCols := cols.ColsOf(j.Left)
	var segCols algebra.ColSet
	for _, c := range algebra.Conjuncts(j.On) {
		cmp, ok := c.(*algebra.Cmp)
		if !ok || cmp.Op != algebra.CmpEq {
			continue
		}
		l, lok := cmp.L.(*algebra.ColRef)
		r, rok := cmp.R.(*algebra.ColRef)
		if !lok || !rok {
			continue
		}
		a, b := l.Col, r.Col
		if !leftCols.Contains(a) {
			a, b = b, a
		}
		if !leftCols.Contains(a) {
			continue
		}
		// b must be the same column from the other instance.
		if mapped, ok := remap[b]; ok && mapped == a {
			segCols.Add(a)
		}
	}
	if segCols.Empty() {
		return nil, false
	}

	inputCols := leftCols.Ordered()
	ref1 := &algebra.SegmentRef{Cols: inputCols}
	ref2Cols := make([]algebra.ColID, len(inputCols))
	inv := make(map[algebra.ColID]algebra.ColID, len(remap))
	for from, to := range remap {
		inv[to] = from
	}
	for i, c := range inputCols {
		o, ok := inv[c]
		if !ok {
			return nil, false
		}
		ref2Cols[i] = o
	}
	ref2 := &algebra.SegmentRef{Cols: ref2Cols}

	inner := &algebra.Join{Kind: j.Kind, Left: ref1, Right: rebuild(ref2), On: j.On}
	return &algebra.SegmentApply{
		Input:       j.Left,
		InputCols:   inputCols,
		SegmentCols: segCols,
		Inner:       inner,
	}, true
}

// SegmentCandidate reports whether a segment rule can match a join of
// kind over left and right, on the trees' shapes alone:
// TryPushJoinBelowSegmentApply wants an inner join over a SegmentApply,
// TryIntroduceSegmentApply two instances (see instances). It builds
// nothing; the rules' column matching decides the rest.
func SegmentCandidate(kind algebra.JoinKind, left, right algebra.Rel) bool {
	_, l := left.(*algebra.SegmentApply)
	_, r := right.(*algebra.SegmentApply)
	return kind == algebra.InnerJoin && (l || r) || instances(kind, left, right)
}

// instances reports whether a join of kind over left and right joins
// two instances of one expression as TryIntroduceSegmentApply wants
// them: right is a second instance of left's shape under at least one
// wrapper (a bare second instance — a plain self-join — computes
// nothing per segment that the join does not compute as well).
func instances(kind algebra.JoinKind, left, right algebra.Rel) bool {
	switch kind {
	case algebra.InnerJoin, algebra.SemiJoin, algebra.AntiSemiJoin:
	default:
		return false
	}
	core := right
	for {
		switch t := core.(type) {
		case *algebra.GroupBy:
			core = t.Input
			continue
		case *algebra.Select:
			core = t.Input
			continue
		case *algebra.Project:
			core = t.Input
			continue
		}
		break
	}
	return core != right && sameShape(left, core)
}

// sameShape is what matchRels requires of two trees before it compares
// columns: the same operators and kinds, the same tables, the same
// numbers of columns, items and aggregates.
func sameShape(a, b algebra.Rel) bool {
	switch ta := a.(type) {
	case *algebra.Get:
		tb, ok := b.(*algebra.Get)
		return ok && ta.Table == tb.Table && len(ta.Cols) == len(tb.Cols)
	case *algebra.Select:
		tb, ok := b.(*algebra.Select)
		return ok && sameShape(ta.Input, tb.Input)
	case *algebra.Project:
		tb, ok := b.(*algebra.Project)
		return ok && len(ta.Items) == len(tb.Items) && sameShape(ta.Input, tb.Input)
	case *algebra.GroupBy:
		tb, ok := b.(*algebra.GroupBy)
		return ok && ta.Kind == tb.Kind && len(ta.Aggs) == len(tb.Aggs) && sameShape(ta.Input, tb.Input)
	case *algebra.Join:
		tb, ok := b.(*algebra.Join)
		return ok && ta.Kind == tb.Kind && sameShape(ta.Left, tb.Left) && sameShape(ta.Right, tb.Right)
	}
	return false
}

// stripWrappers peels GroupBy/Select/Project wrappers off an
// expression ("one of them may optionally have an extra aggregate
// and/or an extra filter"), returning the core and a function that
// re-wraps a replacement core.
func stripWrappers(r algebra.Rel) (algebra.Rel, func(algebra.Rel) algebra.Rel) {
	switch t := r.(type) {
	case *algebra.GroupBy:
		core, rb := stripWrappers(t.Input)
		return core, func(n algebra.Rel) algebra.Rel {
			c := *t
			c.Input = rb(n)
			return &c
		}
	case *algebra.Select:
		core, rb := stripWrappers(t.Input)
		return core, func(n algebra.Rel) algebra.Rel {
			c := *t
			c.Input = rb(n)
			return &c
		}
	case *algebra.Project:
		core, rb := stripWrappers(t.Input)
		return core, func(n algebra.Rel) algebra.Rel {
			c := *t
			c.Input = rb(n)
			return &c
		}
	}
	return r, func(n algebra.Rel) algebra.Rel { return n }
}

// TryPushJoinBelowSegmentApply implements §3.4.2:
//
//	(R SA_A E) ⋈p T = (R ⋈p T) SA_(A∪columns(T)) E
//
// iff columns(p) ⊆ A ∪ columns(T): the predicate passes or rejects
// whole segments, and adding T's columns (which include its key) to
// the segmenting columns keeps segments intact when one R row matches
// several T rows. SegmentRefs are extended so the joined T columns
// flow into the segment: the identity-bound reference re-exposes T's
// columns under their own IDs; others get fresh aliases.
func TryPushJoinBelowSegmentApply(md *algebra.Metadata, cols algebra.ColsOf, j *algebra.Join) (algebra.Rel, bool) {
	if j.Kind != algebra.InnerJoin {
		return nil, false
	}
	sa, saLeft := j.Left.(*algebra.SegmentApply)
	if !saLeft {
		var ok bool
		sa, ok = j.Right.(*algebra.SegmentApply)
		if !ok {
			return nil, false
		}
	}
	var t algebra.Rel
	if saLeft {
		t = j.Right
	} else {
		t = j.Left
	}
	tCols := cols.ColsOf(t)
	if j.On == nil {
		return nil, false
	}
	if !algebra.ScalarCols(j.On).SubsetOf(sa.SegmentCols.Union(tCols)) {
		return nil, false
	}

	tOrdered := tCols.Ordered()
	newInput := &algebra.Join{Kind: algebra.InnerJoin, Left: sa.Input, Right: t, On: j.On}
	newInputCols := append(append([]algebra.ColID(nil), sa.InputCols...), tOrdered...)

	// Extend every SegmentRef bound to this apply.
	isIdentity := func(ref *algebra.SegmentRef) bool {
		if len(ref.Cols) != len(sa.InputCols) {
			return false
		}
		for i := range ref.Cols {
			if ref.Cols[i] != sa.InputCols[i] {
				return false
			}
		}
		return true
	}
	newInner := extendSegmentRefs(md, sa.Inner, func(ref *algebra.SegmentRef) *algebra.SegmentRef {
		ext := make([]algebra.ColID, 0, len(ref.Cols)+len(tOrdered))
		ext = append(ext, ref.Cols...)
		if isIdentity(ref) {
			ext = append(ext, tOrdered...)
		} else {
			for _, c := range tOrdered {
				// The second instance's copy of T's column: one per
				// column, however many ways the push is derived.
				ext = append(ext, md.DerivedColumn(c, "segment", *md.Column(c)))
			}
		}
		return &algebra.SegmentRef{Cols: ext}
	})

	return &algebra.SegmentApply{
		Input:       newInput,
		InputCols:   newInputCols,
		SegmentCols: sa.SegmentCols.Union(tCols),
		Inner:       newInner,
	}, true
}

// extendSegmentRefs rewrites the SegmentRef leaves belonging to the
// current scope (not descending into nested SegmentApply inners).
func extendSegmentRefs(md *algebra.Metadata, r algebra.Rel, f func(*algebra.SegmentRef) *algebra.SegmentRef) algebra.Rel {
	switch t := r.(type) {
	case *algebra.SegmentRef:
		return f(t)
	case *algebra.SegmentApply:
		n := *t
		n.Input = extendSegmentRefs(md, t.Input, f)
		return &n
	}
	ins := r.Inputs()
	if len(ins) == 0 {
		return r
	}
	newIns := make([]algebra.Rel, len(ins))
	changed := false
	for i, c := range ins {
		newIns[i] = extendSegmentRefs(md, c, f)
		if newIns[i] != c {
			changed = true
		}
	}
	if !changed {
		return r
	}
	return r.WithInputs(newIns)
}
