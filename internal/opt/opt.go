package opt

import (
	"container/heap"
	"slices"

	"orthoq/internal/algebra"
	"orthoq/internal/core"
	"orthoq/internal/exec"
	"orthoq/internal/sql/catalog"
	"orthoq/internal/stats"
)

// Canonical names of the cost-based transformation rules, used by
// Config.DisableRules, Result.Rules, and the rule-level equivalence
// harness. Normalization rules (the Apply-removal identities and
// outerjoin simplification) are named in internal/core.
const (
	RulePushGroupByBelowJoin      = "PushGroupByBelowJoin"
	RuleSplitGroupBy              = "SplitGroupBy"
	RulePushLocalGroupByBelowJoin = "PushLocalGroupByBelowJoin"
	RulePullGroupByAboveJoin      = "PullGroupByAboveJoin"
	RulePushSemiJoinBelowGroupBy  = "PushSemiJoinBelowGroupBy"
	RuleSemiJoinToJoinDistinct    = "SemiJoinToJoinDistinct"
	RuleIntroduceSegmentApply     = "IntroduceSegmentApply"
	RulePushJoinBelowSegmentApply = "PushJoinBelowSegmentApply"
	RuleCommuteJoin               = "CommuteJoin"
	RuleRotateJoin                = "RotateJoin"
	RuleJoinToApply               = "JoinToApply"
	RuleEliminateSort             = "EliminateSort"
	RuleMergeJoinOrder            = "MergeJoinOrder"
	RuleStreamAggOrder            = "StreamAggOrder"
)

// ruleNames lists every cost-based transformation rule; a table move
// names its rule by index here.
var ruleNames = [...]string{
	RulePushGroupByBelowJoin, RuleSplitGroupBy, RulePushLocalGroupByBelowJoin,
	RulePullGroupByAboveJoin, RulePushSemiJoinBelowGroupBy, RuleSemiJoinToJoinDistinct,
	RuleIntroduceSegmentApply, RulePushJoinBelowSegmentApply,
	RuleCommuteJoin, RuleRotateJoin, RuleJoinToApply,
	RuleEliminateSort, RuleMergeJoinOrder, RuleStreamAggOrder,
}

// RuleNames lists every cost-based transformation rule.
func RuleNames() []string { return slices.Clone(ruleNames[:]) }

func ruleID(name string) uint8 {
	return uint8(slices.Index(ruleNames[:], name))
}

// The rule families: each of the paper's optimizer-side primitives is a
// list of rule names, and switching a primitive off means disabling
// its rules — there is no second switch. The engine's Config technique
// flags and the benchmark harness's "systems" are both written over
// these lists.
var (
	// FamilyGroupByReorder is §3.1/3.2 GroupBy reordering around joins.
	FamilyGroupByReorder = []string{RulePushGroupByBelowJoin, RulePullGroupByAboveJoin,
		RulePushSemiJoinBelowGroupBy, RuleSemiJoinToJoinDistinct}
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

// Disable builds a Config.DisableRules set from rule-name lists
// (families, or ad-hoc lists of Rule* names).
func Disable(lists ...[]string) map[string]bool {
	set := map[string]bool{}
	for _, l := range lists {
		for _, name := range l {
			set[name] = true
		}
	}
	return set
}

// Config selects which transformation rules the optimizer may use;
// disabling individual primitives implements the paper's ablations
// ("systems" axis of the benchmark harness). The zero value enables
// everything.
type Config struct {
	// DisableRules suppresses rules by canonical name (the Rule*
	// constants; see Disable and the Family* lists): a disabled rule is
	// never tried. The rule-level equivalence harness disables one rule
	// at a time and checks result equivalence.
	DisableRules map[string]bool
	// MaxSteps caps best-first expansions (0 = default).
	MaxSteps int
}

func (c *Config) disabled(name string) bool { return c.DisableRules[name] }

// Optimizer explores the rule-generated plan space and returns the
// cheapest plan under the cost model.
type Optimizer struct {
	Md     *algebra.Metadata
	Cat    *catalog.Catalog
	Stats  *stats.Collection
	Config Config
	// Strategy is the physical strategy the chosen plan will run under.
	// Plans are priced, and the order rules decide, by asking it what
	// the executor's compile step will ask, so a run that forces merge
	// joins is costed with merge joins. The zero value is the default
	// run: every selector on auto.
	Strategy exec.Strategy
}

// Result reports the chosen plan and search telemetry.
type Result struct {
	Plan algebra.Rel
	Cost float64
	// Explored counts best-first expansions: plans taken off the
	// frontier.
	Explored int
	// Generated counts candidate plans offered to the frontier (the
	// seeds and every single-rule rewrite of every expanded plan),
	// before deduplication; most repeat a plan already seen.
	Generated int
	// Costed counts subtree estimates derived. The subtree table shares
	// them between all plans containing the subtree, so this is the
	// optimizer's actual costing work, against Generated plans that a
	// search without the table would each cost whole.
	Costed int
	// Materialized counts the algebra.Rel nodes built from table entries:
	// the spines of the plans taken off the frontier and of the returned
	// plan. Candidates that are never expanded stay entries.
	Materialized int
	// Rules is the sequence of rule applications that derived the
	// chosen plan from its seed (empty when the seed won unchanged).
	Rules []string
}

// frontierItem is one plan awaiting expansion, linked to the plan it
// was derived from so the winner's rule path can be read back.
type frontierItem struct {
	plan *subtree
	cost float64
	from *frontierItem
	rule string // the rewrite that derived plan from from.plan
}

type frontier []*frontierItem

func (f frontier) Len() int           { return len(f) }
func (f frontier) Less(i, j int) bool { return f[i].cost < f[j].cost }
func (f frontier) Swap(i, j int)      { f[i], f[j] = f[j], f[i] }
func (f *frontier) Push(x any)        { *f = append(*f, x.(*frontierItem)) }
func (f *frontier) Pop() any {
	old := *f
	n := len(old)
	it := old[n-1]
	*f = old[:n-1]
	return it
}

// candidate is one named single-rule rewrite.
type candidate struct {
	rel  algebra.Rel
	rule string
}

// Optimize runs best-first search from the normalized plan. Extra
// seeds (equivalent formulations, e.g. the correlated Apply form — the
// paper's §4 "introduction of correlated execution") join the frontier
// so the search considers every strategy family.
//
// Plans live in a subtree table for the duration of the call (see
// table) and are handled as its entries: a candidate is deduplicated
// by probing the class number of its root, costed from the cached
// estimates of the entries it shares with plans seen before, and turned
// into a tree only if it is taken off the frontier.
func (o *Optimizer) Optimize(rel algebra.Rel, seeds ...algebra.Rel) *Result {
	maxSteps := o.Config.MaxSteps
	if maxSteps == 0 {
		maxSteps = 1200
	}
	t := newTable(o)
	res := &Result{}
	var fr frontier
	push := func(s *subtree, from *frontierItem, rule string) *frontierItem {
		t.pushed[s.class] = true
		// A whole plan is costed in the empty scope.
		item := &frontierItem{plan: s, cost: t.c.cost(s).cost, from: from, rule: rule}
		heap.Push(&fr, item)
		return item
	}
	res.Generated = 1 + len(seeds)
	best := push(t.intern(rel), nil, "")
	for _, r := range seeds {
		if s := t.intern(r); !t.pushed[s.class] {
			push(s, nil, "")
		}
	}

	for fr.Len() > 0 && res.Explored < maxSteps {
		item := heap.Pop(&fr).(*frontierItem)
		res.Explored++
		if item.cost < best.cost {
			best = item
		}
		// Prune hopeless regions: anything an order of magnitude worse
		// than the incumbent rarely leads anywhere better.
		if item.cost > best.cost*12 {
			continue
		}
		for k, m := range t.expand(item.plan) {
			res.Generated++
			if class := t.probe(item.plan, k); class >= 0 && t.pushed[class] {
				continue // a plan already seen: no entry was made for it
			}
			push(t.target(item.plan, k), item, ruleNames[m.rule])
		}
	}
	res.Plan, res.Cost = t.relOf(best.plan), best.cost
	res.Costed, res.Materialized = t.c.costed, t.materialized
	for it := best; it.from != nil; it = it.from {
		res.Rules = append(res.Rules, it.rule)
	}
	slices.Reverse(res.Rules)
	return res
}

// rulesAt applies every enabled rule at the root of r, whose inputs'
// properties in holds. Enablement is Config.DisableRules alone; a
// disabled rule's rewrite is not even attempted.
func (o *Optimizer) rulesAt(r algebra.Rel, in algebra.Props) []candidate {
	var out []candidate
	on := func(rule string) bool { return !o.Config.disabled(rule) }
	add := func(rule string, nr algebra.Rel, ok bool) {
		if ok && nr != nil {
			out = append(out, candidate{rel: nr, rule: rule})
		}
	}
	switch t := r.(type) {
	case *algebra.GroupBy:
		if on(RulePushGroupByBelowJoin) {
			nr, ok := core.TryPushGroupByBelowJoin(o.Md, t)
			add(RulePushGroupByBelowJoin, nr, ok)
		}
		if on(RuleSplitGroupBy) {
			nr, ok := core.TrySplitGroupBy(o.Md, t)
			add(RuleSplitGroupBy, nr, ok)
		}
		if on(RulePushLocalGroupByBelowJoin) {
			nr, ok := core.TryPushLocalGroupByBelowJoin(o.Md, t)
			add(RulePushLocalGroupByBelowJoin, nr, ok)
		}
		if on(RuleStreamAggOrder) {
			nr, ok := tryStreamAggOrder(o.Md, o.Cat, t, in.DeliveredOrder(0))
			add(RuleStreamAggOrder, nr, ok)
		}
	case *algebra.Join:
		if on(RulePullGroupByAboveJoin) {
			nr, ok := core.TryPullGroupByAboveJoin(o.Md, t)
			add(RulePullGroupByAboveJoin, nr, ok)
		}
		if on(RulePushSemiJoinBelowGroupBy) {
			nr, ok := core.TryPushSemiJoinBelowGroupBy(o.Md, t)
			add(RulePushSemiJoinBelowGroupBy, nr, ok)
		}
		if on(RuleSemiJoinToJoinDistinct) {
			nr, ok := core.TrySemiJoinToJoinDistinct(o.Md, t)
			add(RuleSemiJoinToJoinDistinct, nr, ok)
		}
		if on(RuleIntroduceSegmentApply) {
			nr, ok := core.TryIntroduceSegmentApply(o.Md, t)
			add(RuleIntroduceSegmentApply, nr, ok)
		}
		if on(RulePushJoinBelowSegmentApply) {
			nr, ok := core.TryPushJoinBelowSegmentApply(o.Md, t)
			add(RulePushJoinBelowSegmentApply, nr, ok)
		}
		if on(RulePushJoinBelowSegmentApply) && on(RuleIntroduceSegmentApply) {
			// Composite Figure-6→Figure-7 step: introduce SegmentApply
			// at a child join and immediately push this join below it.
			// Without the composition, the intermediate whole-table
			// segmentation costs enough to be pruned before its good
			// successor is generated. The composite counts as both
			// rules, so disabling either removes it.
			for i, child := range t.Inputs() {
				cj, ok := child.(*algebra.Join)
				if !ok {
					continue
				}
				sa, ok := core.TryIntroduceSegmentApply(o.Md, cj)
				if !ok {
					continue
				}
				kids := []algebra.Rel{t.Left, t.Right}
				kids[i] = sa
				wrapped := t.WithInputs(kids).(*algebra.Join)
				nr, ok := core.TryPushJoinBelowSegmentApply(o.Md, wrapped)
				add(RulePushJoinBelowSegmentApply, nr, ok)
			}
		}
		if on(RuleCommuteJoin) {
			nr, ok := commuteJoin(t)
			add(RuleCommuteJoin, nr, ok)
		}
		if on(RuleRotateJoin) {
			nr, ok := rotateJoinRight(t)
			add(RuleRotateJoin, nr, ok)
			nr, ok = rotateJoinLeft(t)
			add(RuleRotateJoin, nr, ok)
		}
		if on(RuleJoinToApply) {
			nr, ok := joinToApply(o.Md, o.Cat, t)
			add(RuleJoinToApply, nr, ok)
		}
		if on(RuleMergeJoinOrder) {
			nr, ok := tryMergeJoinOrder(o.Md, o.Cat, o.Strategy, t, in)
			add(RuleMergeJoinOrder, nr, ok)
		}
	case *algebra.Sort:
		if on(RuleEliminateSort) {
			nr, ok := tryEliminateSort(o.Md, o.Cat, t, in.DeliveredOrder(0))
			add(RuleEliminateSort, nr, ok)
		}
	}
	return out
}
