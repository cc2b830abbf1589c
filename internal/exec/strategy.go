package exec

import "orthoq/internal/algebra"

// The physical selectors: which algorithm runs a join or an
// aggregation is a function of the plan alone — the node's keys and
// the orders its inputs deliver — and nothing a caller configures. The
// compile step, the cost model (opt) and EXPLAIN ask the same
// functions, so what EXPLAIN prints and what the plan was priced as is
// what runs. An order a merge join or a streaming aggregation needs is
// the plan's to deliver (an ordered index scan, a Sort node); the
// executor never inserts a sort of its own.

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
