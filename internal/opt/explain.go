package opt

import (
	"fmt"
	"strings"

	"orthoq/internal/algebra"
	"orthoq/internal/exec"
	"orthoq/internal/sql/catalog"
	"orthoq/internal/stats"
)

// ExecHints carries the execution knobs EXPLAIN needs to predict
// runtime strategy choices (the optimizer itself never reads them).
type ExecHints struct {
	// ApplyStrategy is the Config override for the Apply strategy
	// selector ("" = auto).
	ApplyStrategy string
	// Parallelism is the configured worker count.
	Parallelism int
	// DisableBatch pins execution to the row-at-a-time path.
	DisableBatch bool
	// JoinStrategy is the Config override for the equi-join algorithm
	// ("" / "auto", "hash", "merge").
	JoinStrategy string
	// AggStrategy is the Config override for the grouping algorithm
	// ("" / "auto", "hash", "stream").
	AggStrategy string
	// DisableSortElim disables order-property execution choices.
	DisableSortElim bool
}

// FormatWithEstimates renders a plan with per-node cardinality and
// cost estimates, for EXPLAIN output and cost-model debugging. An
// optional ExecHints adds runtime strategy predictions (apply=...) to
// the nodes whose execution strategy depends on configuration.
func FormatWithEstimates(md *algebra.Metadata, cat *catalog.Catalog, st *stats.Collection, r algebra.Rel, hints ...ExecHints) string {
	// A table keeps the walk linear: each node's estimate is derived
	// once per scope instead of once per ancestor.
	c := newTable(&Optimizer{Md: md, Cat: cat, Stats: st}).c
	ectx := &exec.Context{}
	if len(hints) > 0 {
		ectx.ApplyStrategy = hints[0].ApplyStrategy
		ectx.Parallelism = hints[0].Parallelism
		ectx.DisableBatch = hints[0].DisableBatch
		switch hints[0].JoinStrategy {
		case "hash", "merge":
			ectx.ForceJoin = hints[0].JoinStrategy
		}
		switch hints[0].AggStrategy {
		case "hash", "stream":
			ectx.ForceAgg = hints[0].AggStrategy
		}
		ectx.DisableOrderOpt = hints[0].DisableSortElim
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
			// Forcing covers any equi-join (unsorted sides get explicit
			// sorts); auto needs both sides pre-sorted.
			if lk, rk, _ := exec.SplitJoinKeys(t.On,
				c.props().OutputCols(t.Left), c.props().OutputCols(t.Right)); len(lk) > 0 {
				if ectx.ForceJoin == "merge" ||
					(ectx.ForceJoin == "" && !ectx.DisableOrderOpt && exec.MergeKeysSorted(t, lk, rk)) {
					extra = " join=merge"
				}
			}
		case *algebra.GroupBy:
			if ectx.ForceAgg == "stream" ||
				(ectx.ForceAgg == "" && !ectx.DisableOrderOpt && exec.StreamAggApplicable(t)) {
				extra = " agg=stream"
			}
		case *algebra.Get:
			if len(t.Order) > 0 && !ectx.DisableOrderOpt {
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
