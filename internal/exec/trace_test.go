package exec

import (
	"testing"

	"orthoq/internal/core"
	"orthoq/internal/obs"
)

// TestTraceIterCountsRowsAndBatches pins the counting contract: every
// delivered row increments Rows exactly once and every non-empty batch
// increments Batches, whatever cap each pull carried.
func TestTraceIterCountsRowsAndBatches(t *testing.T) {
	const n = 2500 // > 2×BatchSize
	st := &OpStats{}
	ti := &traceIter{in: &sliceIter{rows: intRows(n)}, st: st, clk: &amortClock{}}
	if err := ti.Open(); err != nil {
		t.Fatal(err)
	}
	var b Batch
	got, pulls := 0, int64(0)
	for _, limit := range []int{3, 0, 1, 0, 0, 0} {
		b.Limit = limit
		if err := ti.NextBatch(&b); err != nil {
			t.Fatal(err)
		}
		if b.Len() > 0 {
			pulls++
		}
		got += b.Len()
	}
	if err := ti.Close(); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("consumer saw %d rows, want %d", got, n)
	}
	if st.Rows != int64(n) || st.Batches != pulls || st.Opens != 1 {
		t.Errorf("traced rows=%d batches=%d opens=%d, want %d, %d, 1", st.Rows, st.Batches, st.Opens, n, pulls)
	}
	if st.Busy <= 0 {
		t.Error("Busy not accumulated")
	}
}

// TestSpanSelfTimeInvariant checks the span timing algebra on a real
// serial plan: Self ∈ [0, Busy] everywhere, and a parent's inclusive
// time covers the sum of its children's (pull execution nests child
// calls inside the parent's timer).
func TestSpanSelfTimeInvariant(t *testing.T) {
	st := testDB(t)
	md, rel, out := compilePlan(t, st,
		`select o_orderstatus, count(*) as n, sum(o_totalprice) as s
		 from orders, customer where o_custkey = c_custkey
		 group by o_orderstatus`,
		core.Options{})
	ctx := NewContext(st, md)
	ctx.EnableTrace()
	if _, err := Run(ctx, rel, out); err != nil {
		t.Fatal(err)
	}
	sp := ctx.Spans(rel)
	if sp == nil {
		t.Fatal("Spans returned nil for a traced run")
	}
	sp.Walk(func(s *obs.Span) {
		if s.Self < 0 || s.Self > s.Busy {
			t.Errorf("%s: Self=%v outside [0, Busy=%v]", s.Op, s.Self, s.Busy)
		}
		if s.Workers > 0 {
			return // children are measured in worker time at a boundary
		}
		var sum int64
		for _, c := range s.Children {
			sum += int64(c.Busy)
		}
		if int64(s.Busy) < sum {
			t.Errorf("%s: inclusive Busy=%v < sum of children %v", s.Op, s.Busy, sum)
		}
	})
	if got := sp.TotalSelf(); got > sp.Busy {
		t.Errorf("TotalSelf=%v exceeds root Busy=%v on a serial plan", got, sp.Busy)
	}
}

// TestTopSpanCounted pins the Top operator's trace wiring: a LIMIT
// plan's Top span must report its produced rows and open (it was once
// compiled without stats and showed up empty in every span tree).
func TestTopSpanCounted(t *testing.T) {
	st := testDB(t)
	md, rel, out := compilePlan(t, st,
		`select o_orderkey from orders order by o_orderkey desc limit 3`,
		core.Options{})
	ctx := NewContext(st, md)
	ctx.EnableTrace()
	res, err := Run(ctx, rel, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("limit returned %d rows", len(res.Rows))
	}
	found := false
	ctx.Spans(rel).Walk(func(s *obs.Span) {
		if s.Op != "Top" {
			return
		}
		found = true
		if s.Rows != 3 || s.Opens != 1 {
			t.Errorf("Top span rows=%d opens=%d, want 3 and 1", s.Rows, s.Opens)
		}
	})
	if !found {
		t.Fatal("no Top span in trace")
	}
}

// TestSpansNilWhenUntraced: no trace, no spans — and no cost.
func TestSpansNilWhenUntraced(t *testing.T) {
	st := testDB(t)
	md, rel, out := compilePlan(t, st, `select count(*) as n from orders`, core.Options{})
	ctx := NewContext(st, md)
	if _, err := Run(ctx, rel, out); err != nil {
		t.Fatal(err)
	}
	if sp := ctx.Spans(rel); sp != nil {
		t.Fatalf("Spans = %+v on an untraced run, want nil", sp)
	}
	if tr := ctx.FormatTrace(rel); tr != "" {
		t.Fatalf("FormatTrace = %q on an untraced run, want empty", tr)
	}
}
