package exec

import (
	"strings"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/algebrize"
	"orthoq/internal/core"
	"orthoq/internal/obs"
	"orthoq/internal/sql/parser"
	"orthoq/internal/storage"
)

// compilePlan parses, algebrizes and normalizes SQL, returning the
// pieces needed to drive compile/Run directly.
func compilePlan(t *testing.T, st *storage.Store, sql string, opts core.Options) (*algebra.Metadata, algebra.Rel, []algebra.ColID) {
	t.Helper()
	q, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	md := algebra.NewMetadata()
	res, err := algebrize.Build(st.Catalog, md, q)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := core.Normalize(md, res.Rel, opts)
	if err != nil {
		t.Fatal(err)
	}
	return md, rel, res.OutCols
}

// TestSeekUsesCompositeIndexPrefix: partsupp's ordered PK on
// (ps_partkey, ps_suppkey) must serve both full-key and prefix seeks.
func TestSeekUsesCompositeIndexPrefix(t *testing.T) {
	st := testDB(t)
	r := runSQL(t, st, "select ps_availqty from partsupp where ps_partkey = 100 and ps_suppkey = 2", core.Options{})
	expectRows(t, r, "20")
	r = runSQL(t, st, "select ps_suppkey from partsupp where ps_partkey = 100", core.Options{})
	expectRows(t, r, "1", "2")
}

// applySpan runs sql correlated and traced under the selector's Apply
// strategy and returns its rows and the first Apply's span.
func applySpan(t *testing.T, st *storage.Store, sql string) (*Result, *obs.Span) {
	t.Helper()
	md, rel, out := compilePlan(t, st, sql, core.Options{KeepCorrelated: true})
	ctx := NewContext(st, md)
	ctx.EnableTrace()
	res, err := Run(ctx, rel, out)
	if err != nil {
		t.Fatal(err)
	}
	var ap *obs.Span
	ctx.Spans(rel).Walk(func(s *obs.Span) {
		if s.Op == "Apply" && ap == nil {
			ap = s
		}
	})
	if ap == nil {
		t.Fatalf("no Apply in\n%s", algebra.FormatRel(md, rel))
	}
	return res, ap
}

// TestApplySpoolsUncorrelatedInner: an uncorrelated subquery under an
// Apply is one binding, so its inner side evaluates once, not per outer
// row.
func TestApplySpoolsUncorrelatedInner(t *testing.T) {
	res, ap := applySpan(t, testDB(t), `
		select c_custkey from customer
		where c_acctbal > (select avg(c2.c_acctbal) from customer c2)`)
	if ap.Bindings != 4 || ap.InnerExecs != 1 {
		t.Errorf("%d inner executions for %d outer rows, want 1 for 4", ap.InnerExecs, ap.Bindings)
	}
	// avg(acctbal) = (100+200+300-5)/4 = 148.75: alice loses, bob and
	// carol win.
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d, want 2", len(res.Rows))
	}
}

// TestCorrelatedInnerNotSpooled: a correlated inner side re-executes
// per distinct binding: four customers, four executions.
func TestCorrelatedInnerNotSpooled(t *testing.T) {
	_, ap := applySpan(t, testDB(t), `
		select c_custkey from customer
		where c_acctbal > (select avg(o_totalprice) from orders where o_custkey = c_custkey)`)
	if ap.Bindings != 4 || ap.InnerExecs != 4 {
		t.Errorf("%d inner executions for %d outer rows, want 4 for 4", ap.InnerExecs, ap.Bindings)
	}
}

// TestRowBudgetAborts: pathological plans abort instead of hanging.
func TestRowBudgetAborts(t *testing.T) {
	st := testDB(t)
	md, rel, out := compilePlan(t, st,
		`select l1.l_orderkey from lineitem l1, lineitem l2, lineitem l3`, core.Options{})
	ctx := NewContext(st, md)
	ctx.RowBudget = 50
	_, err := Run(ctx, rel, out)
	if err == nil || !strings.Contains(err.Error(), "row budget") {
		t.Fatalf("want row budget error, got %v", err)
	}
}

// introduceSegmentApply rewrites the first join of rel that the core
// rule can turn into a SegmentApply, or returns nil.
func introduceSegmentApply(md *algebra.Metadata, rel algebra.Rel) algebra.Rel {
	if j, ok := rel.(*algebra.Join); ok {
		if sa, ok := core.TryIntroduceSegmentApply(md, algebra.TreeCols{}, j); ok {
			return sa
		}
	}
	ins := rel.Inputs()
	for i, c := range ins {
		if nc := introduceSegmentApply(md, c); nc != nil {
			kids := append([]algebra.Rel(nil), ins...)
			kids[i] = nc
			return rel.WithInputs(kids)
		}
	}
	return nil
}

// q17ShapeSQL is TPC-H Q17's shape over the test data: lineitems below
// their part's average quantity — a join of two instances of one
// expression, which IntroduceSegmentApply segments by part.
const q17ShapeSQL = `
	select l.l_orderkey, l.l_linenumber
	from lineitem l,
		(select l2.l_partkey as pk, avg(l2.l_quantity) as aq
		 from lineitem l2 group by l2.l_partkey) as agg
	where l.l_partkey = pk and l.l_quantity < aq`

// TestSegmentApplyExecDirect builds a SegmentApply by hand via the core
// rule and executes it, verifying against the plain join plan.
func TestSegmentApplyExecDirect(t *testing.T) {
	st := testDB(t)
	md, rel, out := compilePlan(t, st, q17ShapeSQL, core.Options{})
	base := runPlanDirect(t, st, md, rel, out)

	seg := introduceSegmentApply(md, rel)
	if seg == nil {
		t.Fatalf("segment apply not introduced:\n%s", algebra.FormatRel(md, rel))
	}
	got := runPlanDirect(t, st, md, seg, out)
	if strings.Join(base, ";") != strings.Join(got, ";") {
		t.Errorf("segment execution differs:\nbase %v\ngot  %v", base, got)
	}
}

func runPlanDirect(t *testing.T, st *storage.Store, md *algebra.Metadata,
	rel algebra.Rel, out []algebra.ColID) []string {
	t.Helper()
	ctx := NewContext(st, md)
	res, err := Run(ctx, rel, out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return resultKey(res)
}

// TestSemiJoinSegmentApply exercises the §3.4.1 extension to
// existential subqueries: semijoin of two instances segments too.
func TestSemiJoinSegmentApply(t *testing.T) {
	st := testDB(t)
	// lineitems whose quantity is below their part's average — spelled
	// existentially so decorrelation produces a semijoin of instances.
	sql := `
		select l.l_orderkey, l.l_linenumber
		from lineitem l
		where exists (
			select agg2.l_partkey
			from (select l3.l_partkey, avg(l3.l_quantity) as aq
			      from lineitem l3 group by l3.l_partkey) as agg2 (l_partkey, aq)
			where agg2.l_partkey = l.l_partkey and l.l_quantity < aq)`
	md, rel, out := compilePlan(t, st, sql, core.Options{})
	base := runPlanDirect(t, st, md, rel, out)

	applied := false
	var search func(algebra.Rel) algebra.Rel
	search = func(n algebra.Rel) algebra.Rel {
		if j, ok := n.(*algebra.Join); ok && (j.Kind == algebra.SemiJoin || j.Kind == algebra.AntiSemiJoin) {
			if sa, ok := core.TryIntroduceSegmentApply(md, algebra.TreeCols{}, j); ok {
				applied = true
				return sa
			}
		}
		ins := n.Inputs()
		for i, c := range ins {
			if nc := search(c); nc != nil {
				kids := make([]algebra.Rel, len(ins))
				copy(kids, ins)
				kids[i] = nc
				return n.WithInputs(kids)
			}
		}
		return nil
	}
	seg := search(rel)
	if !applied || seg == nil {
		t.Fatalf("precondition: IntroduceSegmentApply rewrites a semijoin of this plan, but it fired on none:\n%s", algebra.FormatRel(md, rel))
	}
	got := runPlanDirect(t, st, md, seg, out)
	if strings.Join(base, ";") != strings.Join(got, ";") {
		t.Errorf("semijoin segment differs:\nbase %v\ngot  %v", base, got)
	}
}
