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
// optional exec.Strategy — the one the plan will run under — adds the
// runtime algorithm picks (apply=..., join=merge, agg=stream, sort
// elided) to the nodes whose execution depends on it, by asking the
// same selectors the executor's compile step asks.
func FormatWithEstimates(md *algebra.Metadata, cat *catalog.Catalog, st *stats.Collection, r algebra.Rel, strategy ...exec.Strategy) string {
	// A table keeps the walk linear: each node's estimate is derived
	// once per scope instead of once per ancestor.
	c := newTable(&Optimizer{Md: md, Cat: cat, Stats: st}).c
	ectx := &exec.Context{}
	if len(strategy) > 0 {
		ectx.Strategy = strategy[0]
	}
	var b strings.Builder
	var walk func(algebra.Rel, int)
	walk = func(n algebra.Rel, depth int) {
		est := c.cost(n)
		line := algebra.FormatNode(md, c.props(), n)
		for i := 0; i < depth; i++ {
			b.WriteString("  ")
		}
		extra := ""
		switch t := n.(type) {
		case *algebra.Apply:
			extra = fmt.Sprintf(" apply=%s", exec.PredictApplyStrategy(ectx, t, c.cost(t.Left).rows))
		case *algebra.Join:
			// Annotate only order-exploiting picks; hash stays implicit.
			lk, rk, _ := exec.SplitJoinKeys(t.On,
				c.props().OutputCols(t.Left), c.props().OutputCols(t.Right))
			if ectx.JoinAlg(t, lk, rk) == exec.AlgMerge {
				extra = " join=merge"
			}
		case *algebra.GroupBy:
			if ectx.AggAlg(t) == exec.AlgStream {
				extra = " agg=stream"
			}
		case *algebra.Get:
			if ectx.OrderedScan(t) {
				extra = " sort elided"
			}
		}
		fmt.Fprintf(&b, "%s  [rows≈%.0f cost≈%.0f%s]\n", line, est.rows, est.cost, extra)
		// Costing an Apply/SegmentApply inner requires scope bindings;
		// replicate the scopes while walking.
		switch t := n.(type) {
		case *algebra.Apply:
			walk(t.Left, depth+1)
			saved := c.bound
			c.bound = c.bound.Union(c.props().OutputCols(t.Left))
			walk(t.Right, depth+1)
			c.bound = saved
		case *algebra.SegmentApply:
			walk(t.Input, depth+1)
			in := c.cost(t.Input)
			c.segRows = append(c.segRows, in.rows/c.segments(t, in.rows))
			walk(t.Inner, depth+1)
			c.segRows = c.segRows[:len(c.segRows)-1]
		default:
			for _, child := range n.Inputs() {
				walk(child, depth+1)
			}
		}
	}
	walk(r, 0)
	return b.String()
}
