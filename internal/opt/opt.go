package opt

import (
	"slices"

	"orthoq/internal/algebra"
	"orthoq/internal/core"
	"orthoq/internal/exec"
	"orthoq/internal/sql/catalog"
	"orthoq/internal/stats"
)

// Canonical names of the cost-based transformation rules, used by
// Optimizer.DisableRules, Result.Rules, and the rule-level equivalence
// harness. Normalization rules (the Apply-removal identities and
// outerjoin simplification) are named in internal/core.
const (
	RulePushGroupByBelowJoin      = "PushGroupByBelowJoin"
	RuleSplitGroupBy              = "SplitGroupBy"
	RulePushLocalGroupByBelowJoin = "PushLocalGroupByBelowJoin"
	RulePullGroupByAboveJoin      = "PullGroupByAboveJoin"
	RulePushSemiJoinBelowGroupBy  = "PushSemiJoinBelowGroupBy"
	RuleSemiJoinToJoinDistinct    = "SemiJoinToJoinDistinct"
	RulePushSelectBelowJoin       = "PushSelectBelowJoin"
	RuleIntroduceSegmentApply     = "IntroduceSegmentApply"
	RulePushJoinBelowSegmentApply = "PushJoinBelowSegmentApply"
	RuleCommuteJoin               = "CommuteJoin"
	RuleRotateJoin                = "RotateJoin"
	RuleJoinToApply               = "JoinToApply"
	RuleEliminateSort             = "EliminateSort"
	RuleMergeJoinOrder            = "MergeJoinOrder"
	RuleStreamAggOrder            = "StreamAggOrder"
)

// ruleNames lists every cost-based transformation rule.
var ruleNames = [...]string{
	RulePushGroupByBelowJoin, RuleSplitGroupBy, RulePushLocalGroupByBelowJoin,
	RulePullGroupByAboveJoin, RulePushSemiJoinBelowGroupBy, RuleSemiJoinToJoinDistinct,
	RulePushSelectBelowJoin,
	RuleIntroduceSegmentApply, RulePushJoinBelowSegmentApply,
	RuleCommuteJoin, RuleRotateJoin, RuleJoinToApply,
	RuleEliminateSort, RuleMergeJoinOrder, RuleStreamAggOrder,
}

// RuleNames lists every cost-based transformation rule.
func RuleNames() []string { return slices.Clone(ruleNames[:]) }

// The rule families: each of the paper's optimizer-side primitives is a
// list of rule names, and switching a primitive off means disabling
// its rules — there is no second switch. The engine's Config technique
// flags and the benchmark harness's "systems" are both written over
// these lists.
var (
	// FamilyGroupByReorder is §3.1/3.2 GroupBy reordering around joins,
	// and the selection that follows a GroupBy below a join (a HAVING-style
	// filter on the aggregate).
	FamilyGroupByReorder = []string{RulePushGroupByBelowJoin, RulePullGroupByAboveJoin,
		RulePushSemiJoinBelowGroupBy, RuleSemiJoinToJoinDistinct, RulePushSelectBelowJoin}
	// FamilyLocalAgg is §3.3 LocalGroupBy splitting and pushdown.
	FamilyLocalAgg = []string{RuleSplitGroupBy, RulePushLocalGroupByBelowJoin}
	// FamilySegmentApply is §3.4 segmented execution.
	FamilySegmentApply = []string{RuleIntroduceSegmentApply, RulePushJoinBelowSegmentApply}
	// FamilyJoinReorder is join commutativity/associativity.
	FamilyJoinReorder = []string{RuleCommuteJoin, RuleRotateJoin}
	// FamilyCorrelatedReintro rewrites joins back into index-lookup
	// Apply plans (§4).
	FamilyCorrelatedReintro = []string{RuleJoinToApply}
	// FamilyOrder is the order-property rules: sort elimination via
	// ordered indexes, merge-join and streaming-aggregation enablement.
	FamilyOrder = []string{RuleEliminateSort, RuleMergeJoinOrder, RuleStreamAggOrder}
)

// Optimizer explores the rule-generated plan space and returns the
// cheapest plan under the cost model.
type Optimizer struct {
	Md    *algebra.Metadata
	Cat   *catalog.Catalog
	Stats *stats.Collection
	// DisableRules suppresses rules by canonical name (the Rule*
	// constants and the Family* lists): a disabled rule is never tried.
	// Disabling a primitive's rules is how the paper's ablations run; nil
	// enables everything.
	DisableRules map[string]bool
	// Parallelism is the worker count the plan runs with. Above one,
	// cost decides whether and where an exchange goes (offerExchanges).
	Parallelism int
}

// Result reports the chosen plan and search telemetry.
type Result struct {
	Plan algebra.Rel
	// Cost is the root winner's estimated cost: Plan priced node by node
	// from the nodes below it, as Cost prices the tree.
	Cost float64
	// Est is each node of Plan's estimate: the winner's it was read off,
	// in the costing scope it was chosen in. The executor sizes its hash
	// tables from it and exec.FormatWithEstimates prints it.
	Est exec.Estimates
	// Explored counts the expressions the memo holds when exploration
	// ends: every distinct (operator, input groups) the rules reached.
	Explored int
	// Groups counts the equivalence groups those expressions fall into.
	Groups int
	// Generated counts rule firings that produced a rewrite; many
	// rewrites are expressions the memo already holds. A commute or
	// rotation the memo shows to be one it holds (or withholds) before
	// building it is not counted.
	Generated int
	// Costed counts expression estimates derived: one per member of
	// every group costed, per costing scope.
	Costed int
	// Materialized counts the algebra.Rel nodes built from expressions:
	// the bindings rules were fired on and the returned plan. A binding
	// of a join over a join is built only when its rotation is new.
	Materialized int
	// Queued counts the bindings queued: not a join over a join no rule
	// can rewrite into anything new, nor an operator alone no rule reads.
	Queued int
	// Rules is the rule firings on the derivation of the returned plan's
	// expressions from the seeds, in firing order (empty when a seed won
	// unchanged).
	Rules []string
	// Truncated reports that exploration stopped at the memo's size
	// guard instead of at the fixpoint; the plan is the best of what
	// was explored.
	Truncated bool
}

// Optimize explores, to a fixpoint, everything the enabled rules derive
// from the normalized plan and the extra seeds (equivalent formulations,
// e.g. the correlated Apply form — the paper's §4 "introduction of
// correlated execution"), and returns the cheapest plan found.
//
// The space is a memo (see memo): expressions over equivalence groups.
// The seeds enter one root group; each rule fires once per expression
// and input binding, and its rewrite joins the group of the expression
// it rewrote; when no binding is pending, every group is costed bottom
// up — an expression from the winners of its input groups — and the
// plan is read off the root group's winner.
func (o *Optimizer) Optimize(rel algebra.Rel, seeds ...algebra.Rel) *Result {
	m := newMemo(o)
	root := m.intern(rel, nil).group
	for _, seed := range seeds {
		// A seed need only produce what every formulation produces.
		root.out = root.out.Intersection(algebra.OutputCols(seed))
		m.intern(seed, root)
	}
	m.explore()
	if o.Parallelism > 1 {
		root = m.offerExchanges(root)
	}
	return m.extract(root)
}

// Estimate prices the plan r as given: r entered in a memo of its own,
// one expression per group, and read back by the extraction Optimize
// reads its plan with, so Result.Plan is r itself, every node priced
// from the nodes below it, and Result.Est is keyed by r's nodes.
func (o *Optimizer) Estimate(r algebra.Rel) *Result {
	m := newMemo(o)
	return m.extract(m.intern(r, nil).group)
}

// extract reads the plan off root's cheapest winner, with the estimate
// each of its nodes was chosen by, and the memo's telemetry.
func (m *memo) extract(root *group) *Result {
	est := exec.Estimates{}
	var chosen []*mexpr
	plan := m.c.plan(root, 0, func(e *mexpr, n algebra.Rel, w estimate) {
		chosen = append(chosen, e)
		est[n] = struct{ Rows, Cost float64 }{w.rows, w.cost}
	})
	return &Result{
		Plan:         plan,
		Cost:         est[plan].Cost,
		Est:          est,
		Explored:     m.live,
		Groups:       m.standing,
		Generated:    m.fired,
		Costed:       m.c.costed,
		Materialized: m.materialized,
		Queued:       m.queued,
		Rules:        derivation(chosen),
		Truncated:    m.truncated,
	}
}

// fire applies the enabled rules to the binding b: with b.slot < 0
// the rules that look at b.p alone, on p over its input groups'
// representatives; otherwise the rules whose pattern names the operator
// of input slot as well, on p over the member b.in of that group. A
// rule's rewrite joins p's group. Enablement is DisableRules alone; a
// disabled rule's rewrite is not even attempted. A commute or rotation
// that would change nothing is not built (commutes, rotation), nor the
// tree of a join over a join that no rule would rewrite.
func (m *memo) fire(b binding) {
	var rotate func(*algebra.Join) (algebra.Rel, bool)
	if joinOverJoin(b) {
		d, build, _ := m.rotation(b)
		if !build {
			m.skip(b, "join over join not fired")
			return
		}
		rotate = func(j *algebra.Join) (algebra.Rel, bool) { return rotateJoin(j, b.slot, d.inner, d.outer), true }
	}
	m.rewrite(b, m.bind(b.p, b.slot, b.in), rotate, m.commutes)
}

// rewrite fires the enabled rules on the binding b, whose tree is r.
// rotate is RotateJoin's rewrite of a join over a join (nil: not
// tried); commutes decides whether CommuteJoin is tried on a join.
func (m *memo) rewrite(b binding, r algebra.Rel, rotate func(*algebra.Join) (algebra.Rel, bool), commutes func(*mexpr) bool) {
	o, md := m.o, m.o.Md
	p, slot, in := b.p, b.slot, b.in
	try := func(rule string, rewrite func() (algebra.Rel, bool)) {
		if !o.DisableRules[rule] {
			if nr, ok := rewrite(); ok && nr != nil {
				m.add(p, in, rule, nr)
			}
		}
	}
	switch t := r.(type) {
	case *algebra.Select:
		if slot == 0 {
			try(RulePushSelectBelowJoin, func() (algebra.Rel, bool) { return core.TryPushSelectBelowJoin(m, t) })
		}
	case *algebra.GroupBy:
		if slot == 0 {
			try(RulePushGroupByBelowJoin, func() (algebra.Rel, bool) { return core.TryPushGroupByBelowJoin(md, m, t) })
			try(RulePushLocalGroupByBelowJoin, func() (algebra.Rel, bool) { return core.TryPushLocalGroupByBelowJoin(md, m, t) })
			return
		}
		try(RuleSplitGroupBy, func() (algebra.Rel, bool) {
			// A scalar aggregate is split only under the exchange
			// (offerExchanges), never explored: exploring its split
			// moves 29 of the pinned searches.
			if t.Kind != algebra.VectorGroupBy {
				return nil, false
			}
			return core.TrySplitGroupBy(md, t)
		})
		try(RuleStreamAggOrder, func() (algebra.Rel, bool) { return tryStreamAggOrder(md, o.Cat, t, p.DeliveredOrder(0)) })
	case *algebra.Join:
		if slot < 0 {
			try(RuleSemiJoinToJoinDistinct, func() (algebra.Rel, bool) { return core.TrySemiJoinToJoinDistinct(md, m, t) })
			try(RuleCommuteJoin, func() (algebra.Rel, bool) {
				if t.Kind.InnerOrCross() && !commutes(p) {
					m.skip(b, RuleCommuteJoin+" not built")
					return nil, false
				}
				return commuteJoin(t)
			})
			try(RuleMergeJoinOrder, func() (algebra.Rel, bool) { return tryMergeJoinOrder(md, o.Cat, t, p) })
			// The two instances are found by their groups' keys, so the
			// join over its inputs' representatives is the one binding.
			try(RuleIntroduceSegmentApply, func() (algebra.Rel, bool) { return core.TryIntroduceSegmentApply(md, m, t) })
			return
		}
		if rotate != nil {
			try(RuleRotateJoin, func() (algebra.Rel, bool) { return rotate(t) })
		}
		if slot == 0 {
			try(RulePushSemiJoinBelowGroupBy, func() (algebra.Rel, bool) { return core.TryPushSemiJoinBelowGroupBy(md, m, t) })
		} else {
			try(RulePullGroupByAboveJoin, func() (algebra.Rel, bool) { return core.TryPullGroupByAboveJoin(md, m, t) })
			try(RuleJoinToApply, func() (algebra.Rel, bool) { return joinToApply(o.Cat, m, t) })
		}
		if _, ok := in.op.(*algebra.SegmentApply); ok {
			try(RulePushJoinBelowSegmentApply, func() (algebra.Rel, bool) { return core.TryPushJoinBelowSegmentApply(md, m, t) })
		}
	case *algebra.Sort:
		try(RuleEliminateSort, func() (algebra.Rel, bool) { return tryEliminateSort(md, o.Cat, t, p.DeliveredOrder(0)) })
	}
}

// alone reports whether the binding of an operator alone is queued: a
// rule matches it alone (a join, a GroupBy, a Sort), or depth2 names it
// as a join's input, whose tree a binding above reads as it was built
// when this binding fired. No rule reads an Apply, a Top, ... alone.
func alone(op algebra.Rel) bool {
	_, sort := op.(*algebra.Sort)
	return sort || depth2(&algebra.Join{}, op)
}

// depth2 reports whether some rule's pattern names, beside the operator
// p it fires on, the operator in of one of p's inputs — whether fire has
// anything to do for that binding.
func depth2(p, in algebra.Rel) bool {
	switch p.(type) {
	case *algebra.Join:
		switch in.(type) {
		case *algebra.Join, *algebra.GroupBy, *algebra.SegmentApply,
			*algebra.Get, *algebra.Select: // the last two: JoinToApply
			return true
		}
	case *algebra.GroupBy, *algebra.Select:
		_, ok := in.(*algebra.Join)
		return ok
	}
	return false
}
