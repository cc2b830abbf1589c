package opt

import (
	"fmt"
	"strings"

	"orthoq/internal/algebra"
	"orthoq/internal/exec"
	"orthoq/internal/sql/catalog"
	"orthoq/internal/stats"
)

// FormatWithEstimates renders a plan with per-node cardinality and
// cost estimates, for EXPLAIN output and cost-model debugging. An
// optional exec.Strategy — the one the plan will run under — prices
// the plan as that run would execute it and adds the runtime algorithm
// picks (apply=..., join=merge, agg=stream, sort elided) to the nodes
// whose execution depends on it, by asking the same selectors the
// executor's compile step asks.
func FormatWithEstimates(md *algebra.Metadata, cat *catalog.Catalog, st *stats.Collection, r algebra.Rel, strategy ...exec.Strategy) string {
	o := &Optimizer{Md: md, Cat: cat, Stats: st}
	if len(strategy) > 0 {
		o.Strategy = strategy[0]
	}
	// The plan is entered in a memo of its own — one expression per group
	// — and read back group by group: the estimates are the ones the
	// search ranks plans by, each derived once per scope instead of once
	// per ancestor.
	m := newMemo(o)
	c := m.c
	ectx := &exec.Context{Strategy: o.Strategy}
	var b strings.Builder
	var walk func(*group, int)
	walk = func(g *group, depth int) {
		s := g.exprs[0]
		est := c.cost(g)
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
		extra := ""
		switch n := s.op.(type) {
		case *algebra.Apply:
			extra = fmt.Sprintf(" apply=%s", exec.PredictApplyStrategy(ectx, n, c.cost(s.kids[0]).rows))
		case *algebra.Join:
			// Annotate only order-exploiting picks; hash stays implicit.
			lk, rk, _ := exec.SplitJoinKeys(n.On, s.OutputCols(0), s.OutputCols(1))
			if o.Strategy.JoinAlg(lk, rk, s.DeliveredOrder(0), s.DeliveredOrder(1)) == exec.AlgMerge {
				extra = " join=merge"
			}
		case *algebra.GroupBy:
			if o.Strategy.AggAlg(n, s.DeliveredOrder(0)) == exec.AlgStream {
				extra = " agg=stream"
			}
		case *algebra.Get:
			if o.Strategy.OrderedScan(n) {
				extra = " sort elided"
			}
		}
		fmt.Fprintf(&b, "%s  [rows≈%.0f cost≈%.0f%s]\n", algebra.FormatNode(md, s, s.op), est.rows, est.cost, extra)
		for i, k := range s.inputs() {
			if i == 0 {
				walk(k, depth+1)
			} else {
				// An Apply or SegmentApply costs its inner side in a scope
				// of its own.
				c.inner(s, c.cost(s.kids[0]).rows, func() { walk(k, depth+1) })
			}
		}
	}
	walk(m.intern(r, nil).group, 0)
	return b.String()
}
