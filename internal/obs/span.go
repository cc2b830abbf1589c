package obs

import "time"

// Span is one operator's execution record in a per-query span tree.
// The executor builds one Span per plan operator from its trace
// counters after the run; the tree mirrors the plan shape.
//
// Timing semantics:
//
//   - Busy is inclusive wall time spent inside the operator's
//     Open/Next/NextBatch frames — its children's time is part of it,
//     because children are only ever pulled from within those frames.
//   - Self is Busy minus the direct children's Busy (clamped at zero):
//     the operator's own work.
//   - A Span with Workers > 0 is a parallel boundary: its children
//     were executed by concurrent worker goroutines, and their Busy
//     sums across workers, so it may legitimately exceed the parent's
//     wall-clock Busy. At such a boundary Self equals Busy (the
//     coordinator's own wall time, which is largely waiting on and
//     merging worker output) and WorkerTime carries the cumulative
//     worker-side time. Below the boundary the nesting invariant
//     parent.Busy >= sum(children.Busy) holds again, per worker and
//     therefore for the merged sums.
type Span struct {
	// Op is the logical operator name ("Get", "Join", "GroupBy", ...).
	Op string `json:"op"`
	// Rows is the number of rows the operator produced across all
	// opens (for a parallel boundary: rows forwarded to the consumer).
	Rows int64 `json:"rows"`
	// Batches counts non-empty batch productions; 0 means the operator
	// was driven row-at-a-time.
	Batches int64 `json:"batches,omitempty"`
	// Opens counts Open calls (Apply re-opens its inner side per outer
	// row; parallel operators sum opens across workers).
	Opens int64 `json:"opens"`
	// Busy is inclusive wall time (see type comment).
	Busy time.Duration `json:"busy_ns"`
	// Self is Busy minus direct children's Busy, clamped at zero.
	Self time.Duration `json:"self_ns"`
	// MemBytes is the operator's accounted working-state memory
	// (cumulative grants).
	MemBytes int64 `json:"mem_bytes,omitempty"`
	// Spills counts the operator's spill episodes.
	Spills int64 `json:"spills,omitempty"`
	// Workers and Morsels are set on parallel boundaries: workers
	// started and driver-scan morsels dispatched.
	Workers int64 `json:"workers,omitempty"`
	Morsels int64 `json:"morsels,omitempty"`
	// WorkerTime is the cumulative worker-side wall time at a parallel
	// boundary (sums across workers; exceeds Busy when workers overlap).
	WorkerTime time.Duration `json:"worker_ns,omitempty"`
	// Strategy is the physical choice compile made for the operator: on
	// an Apply "probe" or "batched" (whether a batched Apply memoized and
	// used workers is decided at run time and shows in InnerExecs and
	// Workers); on a table access that seeks an index (a Get, or the
	// Select over one) "seek=" and the index name, as EXPLAIN prints it;
	// empty otherwise.
	Strategy string `json:"strategy,omitempty"`
	// Bindings counts an Apply's correlation-binding lookups (one per
	// outer row); InnerExecs counts actual inner-side executions — for
	// a probe, the batches of bindings looked up at once. Their ratio is
	// the binding cache's deduplication win, or a probe's batch size.
	Bindings   int64 `json:"bindings,omitempty"`
	InnerExecs int64 `json:"inner_execs,omitempty"`
	// Children are the operator's input spans in plan order.
	Children []*Span `json:"children,omitempty"`
}

// Walk visits the span and all descendants in preorder.
func (s *Span) Walk(f func(*Span)) {
	if s == nil {
		return
	}
	f(s)
	for _, c := range s.Children {
		c.Walk(f)
	}
}

// Find returns the first span (preorder) with the given operator name,
// or nil.
func (s *Span) Find(op string) *Span {
	var found *Span
	s.Walk(func(sp *Span) {
		if found == nil && sp.Op == op {
			found = sp
		}
	})
	return found
}

// TotalSelf sums Self over the whole tree — the accounted share of the
// query's wall time (worker-side time excluded at parallel boundaries).
func (s *Span) TotalSelf() time.Duration {
	var t time.Duration
	s.Walk(func(sp *Span) { t += sp.Self })
	return t
}

// FinishSelf computes Self for the span from its children, applying
// the parallel-boundary rule. The executor calls it once per span
// after children are attached.
func (s *Span) FinishSelf() {
	if s.Workers > 0 {
		// Parallel boundary: children ran concurrently on workers;
		// subtracting their summed time from coordinator wall time is
		// meaningless. Self is the coordinator's own frame time.
		s.Self = s.Busy
		return
	}
	self := s.Busy
	for _, c := range s.Children {
		self -= c.Busy
	}
	if self < 0 {
		self = 0
	}
	s.Self = self
}
