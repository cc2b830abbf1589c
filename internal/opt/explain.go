package opt

import (
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
// traced run, and exec.FormatWithEstimates prints it.
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
