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
	if j.On == nil {
		return nil, false
	}
	// The second instance is under at least one wrapper: a bare second
	// instance — a plain self-join — computes nothing per segment that
	// the join does not compute as well.
	var wrappers []algebra.Rel
	core2 := j.Right
	for {
		switch core2.(type) {
		case *algebra.GroupBy, *algebra.Select, *algebra.Project:
			wrappers = append(wrappers, core2)
			core2, _ = algebra.InputsOf(core2)
			continue
		}
		break
	}
	// Two instances output as many columns, which tells most joins apart
	// before a key is derived.
	leftCols := cols.ColsOf(j.Left)
	if len(wrappers) == 0 || leftCols.Len() != cols.ColsOf(core2).Len() {
		return nil, false
	}
	// toSecond maps the first instance's columns to the second's.
	toSecond, ok := matchRels(cols.InstanceOf(core2), cols.InstanceOf(j.Left))
	if !ok {
		return nil, false
	}
	// Find equality conjuncts between corresponding instance columns.
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
		if mapped, ok := toSecond[a]; ok && mapped == b {
			segCols.Add(a)
		}
	}
	if segCols.Empty() {
		return nil, false
	}

	inputCols := leftCols.Ordered()
	ref1 := &algebra.SegmentRef{Cols: inputCols}
	ref2Cols := make([]algebra.ColID, len(inputCols))
	for i, c := range inputCols {
		o, ok := toSecond[c]
		if !ok {
			return nil, false
		}
		ref2Cols[i] = o
	}
	right := algebra.Rel(&algebra.SegmentRef{Cols: ref2Cols})
	for i := len(wrappers) - 1; i >= 0; i-- {
		right = wrappers[i].WithInputs([]algebra.Rel{right})
	}
	return &algebra.SegmentApply{
		Input:       j.Left,
		InputCols:   inputCols,
		SegmentCols: segCols,
		Inner:       &algebra.Join{Kind: j.Kind, Left: ref1, Right: right, On: j.On},
	}, true
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
	newInner := extendSegmentRefs(sa.Inner, func(ref *algebra.SegmentRef) *algebra.SegmentRef {
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
func extendSegmentRefs(r algebra.Rel, f func(*algebra.SegmentRef) *algebra.SegmentRef) algebra.Rel {
	switch t := r.(type) {
	case *algebra.SegmentRef:
		return f(t)
	case *algebra.SegmentApply:
		n := *t
		n.Input = extendSegmentRefs(t.Input, f)
		return &n
	}
	ins := r.Inputs()
	if len(ins) == 0 {
		return r
	}
	newIns := make([]algebra.Rel, len(ins))
	changed := false
	for i, c := range ins {
		newIns[i] = extendSegmentRefs(c, f)
		if newIns[i] != c {
			changed = true
		}
	}
	if !changed {
		return r
	}
	return r.WithInputs(newIns)
}
