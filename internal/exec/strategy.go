package exec

import "orthoq/internal/algebra"

// Strategy is the physical-choice part of a plan's identity: which
// algorithm runs each node is decided from these five values and the
// logical tree, nowhere else. The engine's Config normalizes into one
// Strategy (spellings validated, "auto" folded to ""), the plan cache
// keys on it, a prepared plan carries it, Context embeds it, and
// EXPLAIN asks it the same questions compile does — so what EXPLAIN
// prints is what runs. The zero value is the default: serial, every
// selector on auto. The cost model prices plans under the Strategy
// they will run with (opt.Optimizer.Strategy).
type Strategy struct {
	// Parallelism is the worker count for morsel-driven parallel
	// execution. 0 or 1 means serial; higher values let eligible
	// scan/join/aggregation subtrees run on that many goroutines.
	Parallelism int
	// Apply overrides the binding-batch Apply strategy selector:
	// "sequential", "batched", or "parallel" force that mode for every
	// Apply in the plan; "" picks per Apply from estimated outer
	// cardinality (pickApplyStrategy). A forced "parallel" still
	// degrades to batched for inner sides that cannot be recompiled on
	// a worker context.
	Apply string
	// Join overrides physical join selection for every equi-join in the
	// plan: "merge" forces merge join (sorting unordered inputs at
	// Open), "hash" forces hash join even over sorted inputs. ""
	// streams a merge join when both input orders already cover the
	// keys and hashes otherwise.
	Join string
	// Agg overrides physical aggregation selection: "stream" forces
	// sorted-input streaming aggregation (sorting the input first when
	// it is not already grouped), "hash" forces hash aggregation. ""
	// streams when the input order makes groups contiguous.
	Agg string
	// DisableOrderOpt turns off order-based physical selection: ordered
	// index scans for Get.Order fall back to scan+sort, and
	// auto-detected merge joins / streaming aggregations revert to
	// their hash forms. Forced modes still apply.
	DisableOrderOpt bool
}

// Algorithm names the selectors answer with; the forced spellings of
// Strategy.Join and Strategy.Agg are the same words.
const (
	AlgHash       = "hash"
	AlgMerge      = "merge"
	AlgStream     = "stream"
	AlgNestedLoop = "nested-loop"
)

// JoinAlg answers which algorithm runs a join whose equality keys the
// caller has split (SplitJoinKeys), given the orders its two inputs
// deliver: nested loops without keys, else the forced algorithm, else
// merge exactly when both inputs already arrive sorted on the keys. A
// forced merge covers any equi-join — the compiler sorts whichever
// side needs it. The delivered orders are the caller's to supply — the
// compiler derives them from the tree it compiles, the optimizer reads
// them off its table entries — so the selectors walk no tree.
func (s Strategy) JoinAlg(lKeys, rKeys []algebra.ColID, lOrder, rOrder []algebra.Ordering) string {
	if len(lKeys) == 0 {
		return AlgNestedLoop
	}
	if s.Join != "" {
		return s.Join
	}
	if !s.DisableOrderOpt {
		if _, _, lSorted, rSorted := mergeKeySeq(lKeys, rKeys, lOrder, rOrder); lSorted && rSorted {
			return AlgMerge
		}
	}
	return AlgHash
}

// MergeSorted reports which inputs of a merge join on the given keys
// arrive in key order already; the compile step sorts the others, which
// only a forced merge join can have. The optimizer prices that sort.
func MergeSorted(lKeys, rKeys []algebra.ColID, lOrder, rOrder []algebra.Ordering) (left, right bool) {
	_, _, left, right = mergeKeySeq(lKeys, rKeys, lOrder, rOrder)
	return left, right
}

// AggAlg answers which algorithm runs aggregation gb over an input
// delivering inOrder: the forced one, else streaming exactly when the
// input order makes every group contiguous. A forced stream over
// ungrouped input sorts it first.
func (s Strategy) AggAlg(gb *algebra.GroupBy, inOrder []algebra.Ordering) string {
	if s.Agg != "" {
		return s.Agg
	}
	if !s.DisableOrderOpt && streamAggApplicable(gb, inOrder) {
		return AlgStream
	}
	return AlgHash
}

// OrderedScan answers whether g's Order requirement is met by walking
// an ordered index (so the Sort the optimizer elided stays elided)
// rather than by a scan under an explicit sort. The executor still
// falls back to the sort when no fresh index covers the order.
func (s Strategy) OrderedScan(g *algebra.Get) bool {
	return len(g.Order) > 0 && !s.DisableOrderOpt
}
