package exec

import "orthoq/internal/algebra"

// The physical selectors: which algorithm runs a join or an
// aggregation is a function of the plan alone — the node's keys and
// the orders its inputs deliver — and nothing a caller configures; how
// an Apply runs is a function of the plan and of the optimizer's
// estimates for it (Estimates). The compile step, the cost model (opt)
// and EXPLAIN ask the same functions, so what EXPLAIN prints and what
// the plan was priced as is what runs. An order a merge join or a
// streaming aggregation needs is the plan's to deliver (an ordered
// index scan, a Sort node); the executor never inserts a sort of its
// own.

// Algorithm names the selectors answer with.
const (
	AlgHash       = "hash"
	AlgMerge      = "merge"
	AlgStream     = "stream"
	AlgNestedLoop = "nested-loop"
)

// JoinAlg answers which algorithm runs a join whose equality keys the
// caller has split (SplitJoinKeys), given the orders its two inputs
// deliver: nested loops without keys, merge exactly when both inputs
// already arrive sorted on the keys, hash otherwise. The delivered
// orders are the caller's to supply — the compiler derives them from
// the tree it compiles, the optimizer reads them off its memo — so the
// selectors walk no tree.
func JoinAlg(lKeys, rKeys []algebra.ColID, lOrder, rOrder []algebra.Ordering) string {
	if len(lKeys) == 0 {
		return AlgNestedLoop
	}
	if _, _, lSorted, rSorted := mergeKeySeq(lKeys, rKeys, lOrder, rOrder); lSorted && rSorted {
		return AlgMerge
	}
	return AlgHash
}

// AggAlg answers which algorithm runs aggregation gb over an input
// delivering inOrder: streaming exactly when the order makes every
// group contiguous, hash otherwise.
func AggAlg(gb *algebra.GroupBy, inOrder []algebra.Ordering) string {
	if algebra.GroupedBy(inOrder, gb.GroupCols) {
		return AlgStream
	}
	return AlgHash
}

// Estimates is the optimizer's estimate for each node of one plan
// (opt.PlanEstimates builds it once per compiled plan). It is the only
// cardinality estimate the executor reads: compile sizes hash tables
// from it and picks each Apply's strategy from it, and EXPLAIN prints
// the same pick. A node with no entry is unknown: its operator gets no
// size hint, and a correlated Apply over it runs batched. Read-only
// once built; every strand of a run shares it.
type Estimates map[algebra.Rel]struct {
	// Rows is the node's estimated output rows — per execution, for a
	// node inside an Apply's or SegmentApply's inner side.
	Rows float64
	// Cost is the estimated cost of the subtree the node roots.
	Cost float64
	// Execs, on an Apply, is how many times the cost model priced its
	// inner side to run: the distinct correlation bindings, or 1 when
	// the inner side is uncorrelated.
	Execs float64
}

// joinPresizeMax caps the build rows a hash-join table is pre-sized
// for: an estimate can be far off (a product of selectivities), and a
// map grows geometrically anyway.
const joinPresizeMax = 1 << 16

// sizeHint is rel's estimated rows as a table pre-size, capped at
// limit; 0 when unknown.
func (e Estimates) sizeHint(rel algebra.Rel, limit int) int {
	rows := e[rel].Rows
	if !(rows >= 1) {
		return 0
	}
	return int(min(rows, float64(limit)))
}

// ApplyStrategy answers which strategy ("sequential", "batched" or
// "parallel") runs Apply a of the plan e estimates, on a strand with
// the given worker count. Compile asks it for every Apply it lowers and
// EXPLAIN for every Apply it prints.
func (e Estimates) ApplyStrategy(a *algebra.Apply, parallelism int) string {
	return e.strategy(a, parallelism).String()
}

// applyStrategy is the strategy a runs under on this strand: the one
// the Context.Apply test seam forces, else the estimates' pick.
func (c *Context) applyStrategy(a *algebra.Apply) applyStrategy {
	switch c.Apply {
	case "sequential":
		return applySequential
	case "batched":
		return applyBatched
	case "parallel":
		if algebra.HasForeignSegmentRefs(a.Right) {
			return applyBatched // see Estimates.strategy
		}
		return applyParallel
	}
	return c.Estimates.strategy(a, c.Parallelism)
}

// applyStrategy selects how correlated Apply executes its inner side.
type applyStrategy int

const (
	// applySequential re-opens the inner per outer row.
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
	// applyDedupMinRatio is the outer-rows-per-execution ratio below
	// which batching is pointless: when nearly every binding is unique
	// the cache never hits and the batch machinery is pure overhead, so
	// the selector stays sequential.
	applyDedupMinRatio = 1.25
)

// strategy picks a's strategy from two numbers the optimizer derived
// for the plan — the outer rows and the inner executions it priced (0:
// unknown) — and the strand's worker count.
func (e Estimates) strategy(a *algebra.Apply, parallelism int) applyStrategy {
	outerRows, execs := e[a.Left].Rows, e[a].Execs
	switch sig, _ := algebra.ApplyBindingCols(a); {
	case sig.Empty():
		// Uncorrelated inners are spooled on the sequential path.
		return applySequential
	case outerRows <= 0:
		return applyBatched
	case outerRows <= applySeqMaxOuter:
		return applySequential
	case execs > 0 && outerRows/execs < applyDedupMinRatio:
		// Nearly-unique bindings (e.g. correlation on a key column):
		// the cache cannot pay for the batching machinery.
		return applySequential
	case parallelism > 1 && outerRows >= applyParMinOuter && !algebra.HasForeignSegmentRefs(a.Right):
		// An inner side holding SegmentRef leaves bound by an enclosing
		// SegmentApply cannot be recompiled on a worker context.
		return applyParallel
	}
	return applyBatched
}
