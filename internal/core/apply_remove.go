package core

import (
	"orthoq/internal/algebra"
	"orthoq/internal/sql/types"
)

// Canonical names of the normalization rewrite rules (the Figure-4
// Apply-removal identities plus outerjoin simplification), used by
// Options.DisableRules/Record and the rule-level equivalence harness.
const (
	RuleApplyToJoin        = "ApplyToJoin"        // identities (1)/(2)
	RuleApplySelect        = "ApplySelect"        // identity (3)
	RuleApplyProject       = "ApplyProject"       // identity (4)
	RuleApplyUnion         = "ApplyUnion"         // identity (5)
	RuleApplyDifference    = "ApplyDifference"    // identity (6)
	RuleApplyJoin          = "ApplyJoin"          // identity (7) + one-sided pushes
	RuleApplyGroupBy       = "ApplyGroupBy"       // identity (8)
	RuleApplyScalarGroupBy = "ApplyScalarGroupBy" // identity (9)
	RuleApplySort          = "ApplySort"
	RuleApplyDecompose     = "ApplyDecompose" // §1.3 common-subexpression form
	RuleSimplifyOuterJoin  = "SimplifyOuterJoin"
)

// NormRuleNames lists every named normalization rule.
func NormRuleNames() []string {
	return []string{
		RuleApplyToJoin, RuleApplySelect, RuleApplyProject, RuleApplyUnion,
		RuleApplyDifference, RuleApplyJoin, RuleApplyGroupBy,
		RuleApplyScalarGroupBy, RuleApplySort, RuleApplyDecompose,
		RuleSimplifyOuterJoin,
	}
}

// Options gates normalization features. The zero value matches the
// paper's shipped behavior.
type Options struct {
	// RemoveClass2 enables identities (5)–(7), which remove Apply over
	// union/difference/cross-product at the cost of duplicating the
	// outer relation as a common subexpression (paper class 2, §2.5).
	// The paper leaves these correlated in its implementation; we
	// implement them behind this flag.
	RemoveClass2 bool
	// KeepCorrelated disables Apply removal entirely (used by the
	// benchmark harness to measure the correlated strategy).
	KeepCorrelated bool
	// KeepOuterJoins disables outerjoin simplification (ablation).
	KeepOuterJoins bool
	// DisableRules suppresses individual normalization rules by
	// canonical name (the Rule* constants). A disabled identity leaves
	// its Apply correlated; the executor still runs it, so results stay
	// equivalent — the property the rule-level harness checks.
	DisableRules map[string]bool
	// Record, when set, is invoked with a rule's name each time that
	// rewrite fires. Used to report which rules shaped a plan.
	Record func(rule string)
}

func (o Options) disabled(name string) bool { return o.DisableRules[name] }

func (o Options) record(name string) {
	if o.Record != nil {
		o.Record(name)
	}
}

// RemoveApplies pushes Apply operators toward the leaves until the
// right side is no longer parameterized by the left (paper §2.3,
// Figure 4), replacing them with joins. Applies that cannot be removed
// (class-2 without the flag, class-3 Max1Row, unsupported shapes) stay
// correlated; the cost-based optimizer can still execute them.
func RemoveApplies(md *algebra.Metadata, r algebra.Rel, opts Options) algebra.Rel {
	if opts.KeepCorrelated {
		return r
	}
	return transformUp(r, func(n algebra.Rel) algebra.Rel {
		a, ok := n.(*algebra.Apply)
		if !ok {
			return n
		}
		return removeApply(md, a, opts)
	})
}

// removeApply attempts to eliminate one Apply node, iterating the
// Figure 4 identities.
func removeApply(md *algebra.Metadata, a *algebra.Apply, opts Options) algebra.Rel {
	cur := a
	for {
		leftCols := algebra.OutputCols(cur.Left)
		if !algebra.OuterRefs(cur.Right).Intersects(leftCols) {
			// Identities (1)/(2): no parameters resolved from R.
			if opts.disabled(RuleApplyToJoin) {
				return cur
			}
			opts.record(RuleApplyToJoin)
			return applyToJoin(cur)
		}
		next, ok := pushApplyDown(md, cur, opts)
		if !ok && opts.RemoveClass2 && !opts.disabled(RuleApplyDecompose) &&
			cur.Kind != algebra.CrossJoin && cur.Kind != algebra.InnerJoin &&
			containsSetOp(cur.Right) {
			// Class-2 fallback: decompose the non-cross Apply through a
			// common subexpression, R A⊗ E = R ⊗_{R.key} (R A× E), so
			// that identities (5)/(6) can handle the set operation
			// under a cross Apply.
			next, ok = decomposeApplyViaKeyJoin(md, cur)
			if ok {
				opts.record(RuleApplyDecompose)
			}
		}
		if !ok {
			return cur // remains correlated
		}
		if na, isApply := next.(*algebra.Apply); isApply {
			cur = na
			continue
		}
		// The rewrite wrapped the Apply in other operators; recurse
		// into the new tree to finish the inner applies.
		return transformUp(next, func(n algebra.Rel) algebra.Rel {
			if na, ok := n.(*algebra.Apply); ok && na != next {
				return removeApply(md, na, opts)
			}
			return n
		})
	}
}

// applyToJoin converts an uncorrelated Apply into the corresponding
// join variant (identities (1) and (2)).
func applyToJoin(a *algebra.Apply) algebra.Rel {
	kind := a.Kind
	if kind == algebra.CrossJoin && a.On != nil && !algebra.IsTrueConst(a.On) {
		kind = algebra.InnerJoin
	}
	return &algebra.Join{Kind: kind, Left: a.Left, Right: a.Right, On: a.On}
}

// pushApplyDown applies one Figure-4 push step. It returns the new
// expression and whether progress was made.
func pushApplyDown(md *algebra.Metadata, a *algebra.Apply, opts Options) (algebra.Rel, bool) {
	switch r := a.Right.(type) {
	case *algebra.Select:
		// Fold the select into the Apply predicate: R A⊗on (σp E) =
		// R A⊗(on∧p) E. Combined with the uncorrelated check this
		// realizes identities (2) and (3) for every join variant.
		if opts.disabled(RuleApplySelect) {
			return nil, false
		}
		opts.record(RuleApplySelect)
		n := *a
		n.Right = r.Input
		n.On = algebra.ConjoinAll(a.On, r.Filter)
		return &n, true

	case *algebra.Project:
		if opts.disabled(RuleApplyProject) {
			return nil, false
		}
		nr, ok := pushApplyThroughProject(md, a, r)
		if ok {
			opts.record(RuleApplyProject)
		}
		return nr, ok

	case *algebra.GroupBy:
		return pushApplyThroughGroupBy(md, a, r, opts)

	case *algebra.Join:
		return pushApplyThroughJoin(md, a, r, opts)

	case *algebra.UnionAll:
		if !opts.RemoveClass2 || a.Kind != algebra.CrossJoin || a.On != nil ||
			opts.disabled(RuleApplyUnion) {
			return nil, false
		}
		opts.record(RuleApplyUnion)
		return pushApplyThroughUnion(md, a, r), true

	case *algebra.Difference:
		if !opts.RemoveClass2 || a.Kind != algebra.CrossJoin || a.On != nil ||
			opts.disabled(RuleApplyDifference) {
			return nil, false
		}
		opts.record(RuleApplyDifference)
		return pushApplyThroughDifference(md, a, r), true

	case *algebra.Top:
		// LIMIT inside a correlated subquery: only the trivial LIMIT 0
		// (empty) can be removed; otherwise stay correlated.
		return nil, false

	case *algebra.Sort:
		// Order inside a subquery is meaningless without Top; drop it.
		if opts.disabled(RuleApplySort) {
			return nil, false
		}
		opts.record(RuleApplySort)
		n := *a
		n.Right = r.Input
		return &n, true
	}
	return nil, false
}

// pushApplyThroughProject realizes identity (4):
// R A× (πv E) = π(v ∪ columns(R)) (R A× E). For left-outer Apply the
// computed items must not fire on NULL-padded rows, so they are
// wrapped in CASE WHEN probe IS NOT NULL (probe: any non-nullable
// column of E). Predicates already folded into the Apply may reference
// item columns; the item expressions are inlined into the predicate.
func pushApplyThroughProject(md *algebra.Metadata, a *algebra.Apply, p *algebra.Project) (algebra.Rel, bool) {
	if a.Kind == algebra.SemiJoin || a.Kind == algebra.AntiSemiJoin {
		// The right side's columns are not part of a (anti)semijoin's
		// output, so the projection only matters to the predicate:
		// inline its items there and discard it.
		on := a.On
		if on != nil && len(p.Items) > 0 {
			sub := make(map[algebra.ColID]algebra.Scalar, len(p.Items))
			for _, it := range p.Items {
				sub[it.Col] = it.Expr
			}
			on = substituteCols(on, sub)
		}
		return &algebra.Apply{Kind: a.Kind, Left: a.Left, Right: p.Input, On: on}, true
	}
	items := p.Items
	if a.Kind == algebra.LeftOuterJoin && len(items) > 0 {
		probe, ok := pickNotNull(md, algebra.TreeCols{}, p.Input)
		if !ok {
			return nil, false
		}
		guarded := make([]algebra.ProjItem, len(items))
		for i, it := range items {
			guarded[i] = algebra.ProjItem{Col: it.Col, Expr: &algebra.Case{
				Whens: []algebra.When{{
					Cond: &algebra.IsNull{Arg: &algebra.ColRef{Col: probe}, Negate: true},
					Then: it.Expr,
				}},
			}}
		}
		items = guarded
	}
	// Inline the raw (unguarded) item definitions into the Apply
	// predicate: the predicate evaluates before padding, so the
	// original expressions are the correct ones there.
	on := a.On
	if on != nil && len(p.Items) > 0 {
		sub := make(map[algebra.ColID]algebra.Scalar, len(p.Items))
		for _, it := range p.Items {
			sub[it.Col] = it.Expr
		}
		on = substituteCols(on, sub)
	}
	na := &algebra.Apply{Kind: a.Kind, Left: a.Left, Right: p.Input, On: on}
	pass := p.Passthrough.Union(algebra.OutputCols(a.Left))
	return &algebra.Project{Input: na, Passthrough: pass, Items: items}, true
}

// pushApplyThroughGroupBy realizes identities (8) and (9).
func pushApplyThroughGroupBy(md *algebra.Metadata, a *algebra.Apply, gb *algebra.GroupBy, opts Options) (algebra.Rel, bool) {
	if a.Kind != algebra.CrossJoin && a.Kind != algebra.InnerJoin {
		return nil, false
	}
	// Disabling is keyed by which identity would eventually fire on
	// this GroupBy kind — the predicate hoist below is merely its
	// preparatory step and is gated with it.
	gateRule := RuleApplyGroupBy
	if gb.Kind == algebra.ScalarGroupBy {
		gateRule = RuleApplyScalarGroupBy
	}
	if opts.disabled(gateRule) {
		return nil, false
	}
	if a.On != nil && !algebra.IsTrueConst(a.On) {
		// σ_on(R A× G(E)): hoist the predicate, then push the apply.
		na := &algebra.Apply{Kind: algebra.CrossJoin, Left: a.Left, Right: a.Right}
		return &algebra.Select{Input: na, Filter: a.On}, true
	}
	left := keyedLeft(md, a.Left)

	switch gb.Kind {
	case algebra.ScalarGroupBy:
		// Identity (9): R A× (G¹_F E) = G(columns(R), F') (R A^LOJ E),
		// with count aggregates redirected to a non-nullable column of
		// E so NULL-padded rows contribute agg(∅).
		aggs, ok := adjustAggsForOuterJoin(md, gb.Aggs, gb.Input)
		if !ok {
			return nil, false
		}
		opts.record(RuleApplyScalarGroupBy)
		inner := &algebra.Apply{Kind: algebra.LeftOuterJoin, Left: left, Right: gb.Input}
		return &algebra.GroupBy{
			Kind:      algebra.VectorGroupBy,
			Input:     inner,
			GroupCols: algebra.OutputCols(left),
			Aggs:      aggs,
		}, true

	case algebra.VectorGroupBy, algebra.LocalGroupBy:
		// Identity (8): R A× (G(A,F) E) = G(A ∪ columns(R), F) (R A× E).
		opts.record(RuleApplyGroupBy)
		inner := &algebra.Apply{Kind: algebra.CrossJoin, Left: left, Right: gb.Input}
		return &algebra.GroupBy{
			Kind:      gb.Kind,
			Input:     inner,
			GroupCols: gb.GroupCols.Union(algebra.OutputCols(left)),
			Aggs:      gb.Aggs,
		}, true
	}
	return nil, false
}

// adjustAggsForOuterJoin rewrites F into F' per identity (9):
// count(*) becomes count(probe) over a non-nullable column of the
// inner expression. All SQL aggregates satisfy agg(∅) = agg({NULL}),
// so the others pass through.
func adjustAggsForOuterJoin(md *algebra.Metadata, aggs []algebra.AggItem, inner algebra.Rel) ([]algebra.AggItem, bool) {
	var probe algebra.ColID
	probeNeeded := false
	for _, ai := range aggs {
		if ai.Func == algebra.AggCountStar {
			probeNeeded = true
		}
	}
	if probeNeeded {
		p, ok := pickNotNull(md, algebra.TreeCols{}, inner)
		if !ok {
			return nil, false
		}
		probe = p
	}
	out := make([]algebra.AggItem, len(aggs))
	for i, ai := range aggs {
		out[i] = ai
		if ai.Func == algebra.AggCountStar {
			out[i].Func = algebra.AggCount
			out[i].Arg = &algebra.ColRef{Col: probe}
		}
	}
	return out, true
}

// pickNotNull selects a guaranteed non-nullable output column.
func pickNotNull(md *algebra.Metadata, cols algebra.ColsOf, r algebra.Rel) (algebra.ColID, bool) {
	nn := algebra.NotNullCols(md, r).Intersection(cols.ColsOf(r))
	if nn.Empty() {
		return 0, false
	}
	return nn.Ordered()[0], true
}

// keyedLeft guarantees the outer relation has a key, manufacturing a
// row number when inference fails (required by identities (7)–(9)).
func keyedLeft(md *algebra.Metadata, left algebra.Rel) algebra.Rel {
	if _, ok := algebra.KeyCols(left); ok {
		return left
	}
	return &algebra.RowNumber{Input: left, Col: md.AddColumn("rownum", types.Int)}
}

// pushApplyThroughJoin pushes a cross Apply into the correlated side
// of an inner/cross join when only one side is parameterized. When
// both sides are parameterized, identity (7) applies (class 2,
// flag-gated): R A× (E1 × E2) = (R A× E1) ⋈R.key (R A× E2).
func pushApplyThroughJoin(md *algebra.Metadata, a *algebra.Apply, j *algebra.Join, opts Options) (algebra.Rel, bool) {
	if a.Kind != algebra.CrossJoin && a.Kind != algebra.InnerJoin {
		return nil, false
	}
	if j.Kind != algebra.InnerJoin && j.Kind != algebra.CrossJoin {
		return nil, false
	}
	if opts.disabled(RuleApplyJoin) {
		return nil, false
	}
	leftCols := algebra.OutputCols(a.Left)
	corrOn := j.On != nil && algebra.ScalarCols(j.On).Intersects(leftCols)
	if corrOn {
		// Hoist the correlated join predicate into the Apply: R A⊗
		// (E1 ⋈p E2) = R A⊗p (E1 × E2).
		opts.record(RuleApplyJoin)
		na := &algebra.Apply{Kind: a.Kind, Left: a.Left, On: algebra.ConjoinAll(a.On, j.On),
			Right: &algebra.Join{Kind: algebra.CrossJoin, Left: j.Left, Right: j.Right}}
		return na, true
	}
	lCorr := algebra.OuterRefs(j.Left).Intersects(leftCols)
	rCorr := algebra.OuterRefs(j.Right).Intersects(leftCols)
	switch {
	case lCorr && !rCorr:
		opts.record(RuleApplyJoin)
		na := &algebra.Apply{Kind: algebra.CrossJoin, Left: a.Left, Right: j.Left}
		out := &algebra.Join{Kind: j.Kind, Left: na, Right: j.Right, On: j.On}
		return wrapOn(out, a.On), true
	case rCorr && !lCorr:
		opts.record(RuleApplyJoin)
		na := &algebra.Apply{Kind: algebra.CrossJoin, Left: a.Left, Right: j.Right}
		out := &algebra.Join{Kind: j.Kind, Left: j.Left, Right: na, On: j.On}
		return wrapOn(out, a.On), true
	case lCorr && rCorr && opts.RemoveClass2:
		// Identity (7): join the two applied sides on R.key.
		opts.record(RuleApplyJoin)
		left := keyedLeft(md, a.Left)
		key, _ := algebra.KeyCols(left)
		l2, remap := cloneWithFreshCols(md, left)
		a1 := &algebra.Apply{Kind: algebra.CrossJoin, Left: left, Right: j.Left}
		rightSide := remapRel(j.Right, remap)
		a2 := &algebra.Apply{Kind: algebra.CrossJoin, Left: l2, Right: rightSide}
		var conds []algebra.Scalar
		key.ForEach(func(c algebra.ColID) {
			conds = append(conds, &algebra.Cmp{Op: algebra.CmpEq,
				L: &algebra.ColRef{Col: c}, R: &algebra.ColRef{Col: remap[c]}})
		})
		on := algebra.ConjoinAll(append(conds, j.On)...)
		out := &algebra.Join{Kind: algebra.InnerJoin, Left: a1, Right: a2, On: on}
		return wrapOn(out, a.On), true
	}
	return nil, false
}

func wrapOn(r algebra.Rel, on algebra.Scalar) algebra.Rel {
	if on == nil || algebra.IsTrueConst(on) {
		return r
	}
	return &algebra.Select{Input: r, Filter: on}
}

// pushApplyThroughUnion realizes identity (5):
// R A× (E1 ∪ E2) = (R A× E1) ∪ (R A× E2). The outer relation is
// duplicated as a common subexpression; its columns keep their IDs on
// the left branch and are remapped on the right, with the union
// mapping restoring the originals for consumers above.
func pushApplyThroughUnion(md *algebra.Metadata, a *algebra.Apply, u *algebra.UnionAll) algebra.Rel {
	leftCols := algebra.OutputCols(a.Left).Ordered()
	r2, remap := cloneWithFreshCols(md, a.Left)
	b1 := &algebra.Apply{Kind: algebra.CrossJoin, Left: a.Left,
		Right: inlineUnionSide(u.Left, u.LeftCols, u.OutCols)}
	b2 := &algebra.Apply{Kind: algebra.CrossJoin, Left: r2,
		Right: remapRel(inlineUnionSide(u.Right, u.RightCols, u.OutCols), remap)}
	nu := &algebra.UnionAll{Left: b1, Right: b2}
	for _, c := range leftCols {
		nu.LeftCols = append(nu.LeftCols, c)
		nu.RightCols = append(nu.RightCols, remap[c])
		nu.OutCols = append(nu.OutCols, c)
	}
	for _, oc := range u.OutCols {
		nu.LeftCols = append(nu.LeftCols, oc)
		nu.RightCols = append(nu.RightCols, remapID(oc, remap))
		nu.OutCols = append(nu.OutCols, oc)
	}
	return nu
}

// pushApplyThroughDifference realizes identity (6):
// R A× (E1 − E2) = (R A× E1) − (R A× E2).
func pushApplyThroughDifference(md *algebra.Metadata, a *algebra.Apply, d *algebra.Difference) algebra.Rel {
	leftCols := algebra.OutputCols(a.Left).Ordered()
	r2, remap := cloneWithFreshCols(md, a.Left)
	b1 := &algebra.Apply{Kind: algebra.CrossJoin, Left: a.Left,
		Right: inlineUnionSide(d.Left, d.LeftCols, d.OutCols)}
	b2 := &algebra.Apply{Kind: algebra.CrossJoin, Left: r2,
		Right: remapRel(inlineUnionSide(d.Right, d.RightCols, d.OutCols), remap)}
	nd := &algebra.Difference{Left: b1, Right: b2}
	for _, c := range leftCols {
		nd.LeftCols = append(nd.LeftCols, c)
		nd.RightCols = append(nd.RightCols, remap[c])
		nd.OutCols = append(nd.OutCols, c)
	}
	for _, oc := range d.OutCols {
		nd.LeftCols = append(nd.LeftCols, oc)
		nd.RightCols = append(nd.RightCols, remapID(oc, remap))
		nd.OutCols = append(nd.OutCols, oc)
	}
	return nd
}

// inlineUnionSide renames a union branch's columns onto the union's
// output IDs with a projection so both branches of the rewritten union
// produce the out columns directly.
func inlineUnionSide(side algebra.Rel, sideCols, outCols []algebra.ColID) algebra.Rel {
	p := &algebra.Project{Input: side}
	for i, oc := range outCols {
		if sideCols[i] == oc {
			p.Passthrough.Add(oc)
		} else {
			p.Items = append(p.Items, algebra.ProjItem{Col: oc, Expr: &algebra.ColRef{Col: sideCols[i]}})
		}
	}
	return p
}

func remapID(c algebra.ColID, remap map[algebra.ColID]algebra.ColID) algebra.ColID {
	if n, ok := remap[c]; ok {
		return n
	}
	return c
}

// containsSetOp reports whether the tree contains a union or
// difference (the class-2 markers).
func containsSetOp(r algebra.Rel) bool {
	found := false
	algebra.VisitRel(r, func(n algebra.Rel) bool {
		switch n.(type) {
		case *algebra.UnionAll, *algebra.Difference:
			found = true
		}
		return !found
	})
	return found
}

// decomposeApplyViaKeyJoin rewrites R A⊗ E into R ⊗_{R.key} (R' A× E')
// where R' is a fresh instance of R — the general common-subexpression
// form that reduces any Apply variant to the primitive cross Apply
// (paper §1.3: "any expression containing standard operators plus
// Apply can be rewritten in terms of standard operators only").
func decomposeApplyViaKeyJoin(md *algebra.Metadata, a *algebra.Apply) (algebra.Rel, bool) {
	left := keyedLeft(md, a.Left)
	key, ok := algebra.KeyCols(left)
	if !ok {
		return nil, false
	}
	l2, remap := cloneWithFreshCols(md, left)
	right := remapRel(a.Right, remap)
	on := algebra.MapScalarCols(a.On, remap, func(sub algebra.Rel) algebra.Rel { return remapRel(sub, remap) })
	inner := &algebra.Apply{Kind: algebra.CrossJoin, Left: l2, Right: right}
	var innerRel algebra.Rel = inner
	if on != nil && !algebra.IsTrueConst(on) {
		innerRel = &algebra.Select{Input: inner, Filter: on}
	}
	var conds []algebra.Scalar
	key.ForEach(func(c algebra.ColID) {
		conds = append(conds, &algebra.Cmp{Op: algebra.CmpEq,
			L: &algebra.ColRef{Col: c}, R: &algebra.ColRef{Col: remap[c]}})
	})
	// The inner side still produces the cloned copies of R's columns;
	// consumers above reference the preserved originals from the join's
	// left side, and the right side re-exposes E's columns under their
	// original IDs (remap only renamed R's columns).
	return &algebra.Join{
		Kind: a.Kind, Left: left, Right: innerRel,
		On: algebra.ConjoinAll(conds...),
	}, true
}
