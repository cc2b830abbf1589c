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
// cost estimates, for EXPLAIN output and cost-model debugging, and
// adds the runtime algorithm picks (apply=..., join=merge, agg=stream,
// sort elided) to the nodes whose execution depends on them, by asking
// the same selectors the executor's compile step asks. parallelism is
// the worker count the plan will run with, which the Apply selector
// reads.
func FormatWithEstimates(md *algebra.Metadata, cat *catalog.Catalog, st *stats.Collection, r algebra.Rel, parallelism int) string {
	// The plan is entered in a memo of its own — one expression per group
	// — and read back group by group: the estimates are the ones the
	// search ranks plans by, each derived once per scope instead of once
	// per ancestor.
	m := newMemo(&Optimizer{Md: md, Cat: cat, Stats: st})
	c := m.c
	ectx := &exec.Context{Parallelism: parallelism}
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
			if exec.JoinAlg(lk, rk, s.DeliveredOrder(0), s.DeliveredOrder(1)) == exec.AlgMerge {
				extra = " join=merge"
			}
		case *algebra.GroupBy:
			if exec.AggAlg(n, s.DeliveredOrder(0)) == exec.AlgStream {
				extra = " agg=stream"
			}
		case *algebra.Get:
			if len(n.Order) > 0 {
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
