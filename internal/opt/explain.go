package opt

import (
	"fmt"
	"strings"

	"orthoq/internal/algebra"
	"orthoq/internal/exec"
	"orthoq/internal/sql/catalog"
	"orthoq/internal/stats"
)

// PlanEstimates returns the optimizer's estimate for each node of the
// final plan r: its rows and cost. The plan is entered in a memo of its own
// — one expression per group — and read back group by group, so the
// estimates are the ones the search ranks plans by, each derived once
// per scope instead of once per ancestor. The executor sizes its hash
// tables from this table and prints it beside the actual rows of a
// traced run, and FormatWithEstimates prints it.
func PlanEstimates(md *algebra.Metadata, cat *catalog.Catalog, st *stats.Collection, r algebra.Rel) exec.Estimates {
	m := newMemo(&Optimizer{Md: md, Cat: cat, Stats: st})
	c := m.c
	est := exec.Estimates{}
	var walk func(algebra.Rel, *group)
	walk = func(rel algebra.Rel, g *group) {
		s := g.exprs[0]
		e := est[rel]
		w := c.cost(g)
		e.Rows, e.Cost = w.rows, w.cost
		left, right := algebra.InputsOf(rel)
		kids := s.inputs()
		if len(kids) > 0 {
			walk(left, kids[0])
		}
		if len(kids) > 1 {
			// An Apply or SegmentApply costs its inner side in a scope of
			// its own.
			c.inner(s, c.cost(kids[0]).rows, func() { walk(right, kids[1]) })
		}
		est[rel] = e
	}
	walk(r, m.intern(r, nil).group)
	return est
}

// FormatWithEstimates renders plan r over catalog cat with the
// per-node cardinality and cost estimates of est (PlanEstimates), for
// EXPLAIN output and cost-model debugging, and adds the runtime picks
// (apply=..., seek=<index>, join=merge, agg=stream, sort elided) to the
// nodes whose execution depends on them, by asking the same selectors,
// with the same inputs, as the executor's compile step.
func FormatWithEstimates(md *algebra.Metadata, cat *catalog.Catalog, est exec.Estimates, r algebra.Rel) string {
	var b strings.Builder
	var walk func(algebra.Rel, int)
	walk = func(rel algebra.Rel, depth int) {
		p := algebra.FromScratch{Of: rel}
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
		extra := ""
		switch n := rel.(type) {
		case *algebra.Apply:
			extra = " apply=" + exec.ApplyStrategy(cat, n)
		case *algebra.Select:
			if g, ok := n.Input.(*algebra.Get); ok {
				if tbl, ok := cat.Table(g.Table); ok {
					if a := exec.CompiledAccess(tbl, g, n.Filter); a.Seek() {
						extra = " seek=" + a.Index.Name
					}
				}
			}
		case *algebra.Join:
			// Annotate only order-exploiting picks; hash stays implicit.
			lk, rk, _ := exec.SplitJoinKeys(n.On, p.OutputCols(0), p.OutputCols(1))
			if exec.JoinAlg(lk, rk, p.DeliveredOrder(0), p.DeliveredOrder(1)) == exec.AlgMerge {
				extra = " join=merge"
			}
		case *algebra.GroupBy:
			if exec.AggAlg(n, p.DeliveredOrder(0)) == exec.AlgStream {
				extra = " agg=stream"
			}
		case *algebra.Get:
			if len(n.Order) > 0 {
				extra = " sort elided"
			}
		}
		e := est[rel]
		fmt.Fprintf(&b, "%s  [rows≈%.0f cost≈%.0f%s]\n", algebra.FormatNode(md, p, rel), e.Rows, e.Cost, extra)
		for _, k := range rel.Inputs() {
			walk(k, depth+1)
		}
	}
	walk(r, 0)
	return b.String()
}
