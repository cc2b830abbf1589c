package exec

import "orthoq/internal/algebra"

// Crude cardinality estimates from collected statistics, used only to
// preallocate hash-join build tables and aggregation hash maps (cuts
// rehash/regrow churn on hot paths). Returning 0 means "no hint"; the
// real selectivity model lives in internal/opt's coster and is not
// duplicated here — a rough over- or under-estimate only changes
// allocation behavior, never results.

// estimateRows guesses how many rows rel produces.
func estimateRows(ctx *Context, rel algebra.Rel) int {
	if ctx.Stats == nil {
		return 0
	}
	switch t := rel.(type) {
	case *algebra.Get:
		if ts := ctx.Stats.Table(t.Table); ts != nil {
			return int(ts.RowCount)
		}
	case *algebra.Select:
		return estimateRows(ctx, t.Input) / 3
	case *algebra.Project:
		return estimateRows(ctx, t.Input)
	case *algebra.Sort:
		return estimateRows(ctx, t.Input)
	case *algebra.GroupBy:
		return estimateGroups(ctx, t, estimateRows(ctx, t.Input))
	case *algebra.Join:
		l, r := estimateRows(ctx, t.Left), estimateRows(ctx, t.Right)
		switch t.Kind {
		case algebra.SemiJoin, algebra.AntiSemiJoin:
			return l
		}
		// Equijoins here are usually key/foreign-key: about the larger
		// side survives.
		if l > r {
			return l
		}
		return r
	}
	return 0
}

// applyStrategy selects how correlated Apply executes its inner side.
type applyStrategy int

const (
	// applySequential re-opens the inner per outer row (legacy path).
	applySequential applyStrategy = iota
	// applyBatched dedups correlation bindings per batch of outer rows
	// and executes once per distinct binding.
	applyBatched
	// applyParallel additionally spreads a batch's distinct missing
	// bindings over a worker pool.
	applyParallel
)

func (s applyStrategy) String() string {
	switch s {
	case applyBatched:
		return "batched"
	case applyParallel:
		return "parallel"
	default:
		return "sequential"
	}
}

const (
	// applySeqMaxOuter: with at most this many estimated outer rows,
	// batching machinery costs more than it saves.
	applySeqMaxOuter = 8
	// applyParMinOuter: below this many estimated outer rows the
	// worker-pool setup is not worth amortizing.
	applyParMinOuter = 4096
)

// chooseApplyStrategy picks the execution strategy for an Apply from
// its estimated outer cardinality (or the Context.Apply test seam).
func chooseApplyStrategy(ctx *Context, a *algebra.Apply, sig algebra.ColSet) applyStrategy {
	return pickApplyStrategy(ctx, a, sig, float64(estimateRows(ctx, a.Left)))
}

// PredictApplyStrategy reports the strategy name an Apply would run
// under given an outer-cardinality estimate; EXPLAIN uses it to
// annotate plans without compiling them. outerRows ≤ 0 means unknown.
func PredictApplyStrategy(ctx *Context, a *algebra.Apply, outerRows float64) string {
	sig, _ := algebra.ApplyBindingCols(a)
	return pickApplyStrategy(ctx, a, sig, outerRows).String()
}

// applyDedupMinRatio is the outer-rows-per-distinct-binding ratio
// below which batching is pointless: when nearly every binding is
// unique the cache never hits and the batch machinery is pure
// overhead, so the selector stays sequential.
const applyDedupMinRatio = 1.25

func pickApplyStrategy(ctx *Context, a *algebra.Apply, sig algebra.ColSet, outerRows float64) applyStrategy {
	// An inner side holding SegmentRef leaves bound by an enclosing
	// SegmentApply cannot be recompiled on a worker context; cap the
	// strategy at batched.
	foreign := algebra.HasForeignSegmentRefs(a.Right)
	switch ctx.Apply {
	case "sequential":
		return applySequential
	case "batched":
		return applyBatched
	case "parallel":
		if foreign {
			return applyBatched
		}
		return applyParallel
	}
	if sig.Empty() {
		// Uncorrelated inners are spooled on the sequential path.
		return applySequential
	}
	if outerRows > 0 && outerRows <= applySeqMaxOuter {
		return applySequential
	}
	if d := estimateDistinct(ctx, sig); outerRows > 0 && d > 0 &&
		outerRows/d < applyDedupMinRatio {
		// Nearly-unique bindings (e.g. correlation on a key column):
		// the cache cannot pay for the batching machinery.
		return applySequential
	}
	if ctx.Parallelism > 1 && !foreign && outerRows >= applyParMinOuter {
		return applyParallel
	}
	return applyBatched
}

// estimateDistinct guesses the number of distinct values the signature
// columns take from base-column statistics (max across columns — a
// lower bound on the distinct combination count). 0 means unknown.
func estimateDistinct(ctx *Context, sig algebra.ColSet) float64 {
	if ctx.Stats == nil {
		return 0
	}
	d := 0.0
	for _, col := range sig.Ordered() {
		meta := ctx.Md.Column(col)
		if meta.Source == "" {
			continue
		}
		ts := ctx.Stats.Table(meta.Source)
		if ts == nil || meta.Ord >= len(ts.Columns) {
			continue
		}
		if v := float64(ts.Columns[meta.Ord].Distinct); v > d {
			d = v
		}
	}
	return d
}

// estimateGroups guesses the number of distinct groups from base-column
// distinct counts, capped by the input cardinality.
func estimateGroups(ctx *Context, gb *algebra.GroupBy, inRows int) int {
	if gb.Kind == algebra.ScalarGroupBy {
		return 1
	}
	if ctx.Stats == nil {
		return 0
	}
	groups := 1
	for _, col := range gb.GroupCols.Ordered() {
		meta := ctx.Md.Column(col)
		if meta.Source == "" {
			continue
		}
		ts := ctx.Stats.Table(meta.Source)
		if ts == nil || meta.Ord >= len(ts.Columns) {
			continue
		}
		if d := int(ts.Columns[meta.Ord].Distinct); d > groups {
			groups = d
		}
	}
	if inRows > 0 && groups > inRows {
		groups = inRows
	}
	return groups
}
