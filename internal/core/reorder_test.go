package core

import (
	"strings"
	"testing"

	"orthoq/internal/algebra"
)

// findNode returns the first node of type T in pre-order.
func findNode[T algebra.Rel](r algebra.Rel) (T, bool) {
	var zero T
	var found T
	ok := false
	algebra.VisitRel(r, func(n algebra.Rel) bool {
		if ok {
			return false
		}
		if t, is := n.(T); is {
			found, ok = t, true
			return false
		}
		return true
	})
	if !ok {
		return zero, false
	}
	return found, true
}

// normalizedQ1 produces the decorrelated Q1: Select over GroupBy over
// Join(customer, orders).
func normalizedQ1(t *testing.T) (algebra.Rel, *algebra.Metadata) {
	t.Helper()
	res, md := algebrizeSQL(t, paperQ1)
	r, err := Normalize(md, res.Rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r, md
}

func TestPushGroupByBelowJoin(t *testing.T) {
	r, md := normalizedQ1(t)
	gb, ok := findNode[*algebra.GroupBy](r)
	if !ok {
		t.Fatal("no GroupBy in normalized Q1")
	}
	pushed, ok := TryPushGroupByBelowJoin(md, algebra.TreeCols{}, gb)
	if !ok {
		t.Fatalf("push below join refused:\n%s", algebra.FormatRel(md, gb))
	}
	// Expect Join(customer, GroupBy(orders)) — Kim's aggregate-then-join.
	j, ok := pushed.(*algebra.Join)
	if !ok {
		t.Fatalf("pushed root = %T", pushed)
	}
	igb, ok := j.Right.(*algebra.GroupBy)
	if !ok {
		t.Fatalf("join right = %T, want GroupBy", j.Right)
	}
	if igb.GroupCols.Len() != 1 {
		t.Errorf("inner grouping cols = %v, want {o_custkey}", igb.GroupCols)
	}
	if _, ok := findNode[*algebra.Get](igb.Input); !ok {
		t.Error("inner GroupBy should sit on the orders scan")
	}
}

func TestPushGroupByBelowJoinConditions(t *testing.T) {
	r, md := normalizedQ1(t)
	gb, _ := findNode[*algebra.GroupBy](r)
	j := gb.Input.(*algebra.Join)

	// Violate condition (2): drop the key of S from grouping columns.
	bad := &algebra.GroupBy{Kind: algebra.VectorGroupBy, Input: j,
		GroupCols: algebra.NewColSet(), Aggs: gb.Aggs}
	if _, ok := TryPushGroupByBelowJoin(md, algebra.TreeCols{}, bad); ok {
		t.Error("push without key(S) in grouping columns must be refused")
	}

	// Violate condition (3): aggregate over a customer column.
	custCol := algebra.OutputCols(j.Left).Ordered()[0]
	bad3 := &algebra.GroupBy{Kind: algebra.VectorGroupBy, Input: j,
		GroupCols: gb.GroupCols,
		Aggs: []algebra.AggItem{{Col: md.AddColumn("x", md.Type(custCol)),
			Func: algebra.AggMax, Arg: &algebra.ColRef{Col: custCol}}}}
	if _, ok := TryPushGroupByBelowJoin(md, algebra.TreeCols{}, bad3); ok {
		t.Error("push with S-side aggregate args must be refused")
	}
}

// TestPushGroupByBelowOuterJoin verifies the §3.2 variant with the
// compensating project for count.
func TestPushGroupByBelowOuterJoin(t *testing.T) {
	res, md := algebrizeSQL(t, `
		select c_custkey,
			(select count(o_orderkey) from orders where o_custkey = c_custkey) as n
		from customer`)
	r, err := Normalize(md, res.Rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gb, ok := findNode[*algebra.GroupBy](r)
	if !ok {
		t.Fatalf("no GroupBy:\n%s", algebra.FormatRel(md, r))
	}
	if _, ok := gb.Input.(*algebra.Join); !ok {
		t.Fatalf("GroupBy input = %T:\n%s", gb.Input, algebra.FormatRel(md, r))
	}
	pushed, ok := TryPushGroupByBelowJoin(md, algebra.TreeCols{}, gb)
	if !ok {
		t.Fatalf("outerjoin push refused:\n%s", algebra.FormatRel(md, gb))
	}
	// count is not NULL-on-empty: expect a compensating project mapping
	// NULL -> 0 above the outerjoin.
	proj, ok := pushed.(*algebra.Project)
	if !ok {
		t.Fatalf("pushed root = %T, want compensating Project:\n%s",
			pushed, algebra.FormatRel(md, pushed))
	}
	if len(proj.Items) != 1 {
		t.Errorf("compensating items = %d", len(proj.Items))
	}
	plan := algebra.FormatRel(md, pushed)
	if !strings.Contains(plan, "LeftOuterJoin") {
		t.Errorf("outerjoin must be preserved:\n%s", plan)
	}
	if !strings.Contains(plan, "CASE WHEN") || !strings.Contains(plan, "THEN 0") {
		t.Errorf("compensating CASE missing:\n%s", plan)
	}
}

// TestPushGroupByBelowOuterJoinSumNeedsNoProject: sum is NULL on
// empty input, so the padding already provides the right value.
func TestPushGroupByBelowOuterJoinSum(t *testing.T) {
	res, md := algebrizeSQL(t, `
		select c_custkey,
			(select sum(o_totalprice) from orders where o_custkey = c_custkey) as total
		from customer`)
	r, err := Normalize(md, res.Rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := findNode[*algebra.GroupBy](r)
	pushed, ok := TryPushGroupByBelowJoin(md, algebra.TreeCols{}, gb)
	if !ok {
		t.Fatal("push refused")
	}
	if _, isProj := pushed.(*algebra.Project); isProj {
		t.Error("sum needs no compensating project (paper §3.2 example)")
	}
	if _, isJoin := pushed.(*algebra.Join); !isJoin {
		t.Errorf("want Join root, got %T", pushed)
	}
}

func TestPullGroupByAboveJoin(t *testing.T) {
	// Build Kim-form manually by pushing, then pull back up.
	r, md := normalizedQ1(t)
	gb, _ := findNode[*algebra.GroupBy](r)
	pushed, ok := TryPushGroupByBelowJoin(md, algebra.TreeCols{}, gb)
	if !ok {
		t.Fatal("push failed")
	}
	j := pushed.(*algebra.Join)
	pulled, ok := TryPullGroupByAboveJoin(md, algebra.TreeCols{}, j)
	if !ok {
		t.Fatal("pull refused")
	}
	ngb, ok := pulled.(*algebra.GroupBy)
	if !ok {
		t.Fatalf("pulled root = %T", pulled)
	}
	if _, ok := ngb.Input.(*algebra.Join); !ok {
		t.Errorf("pulled GroupBy input = %T", ngb.Input)
	}
	// Original grouping columns must be included.
	if !gb.GroupCols.Intersection(ngb.GroupCols).Equals(gb.GroupCols.Intersection(algebra.OutputCols(pulled))) {
		t.Errorf("grouping columns lost: %v -> %v", gb.GroupCols, ngb.GroupCols)
	}
}

func TestSplitGroupBy(t *testing.T) {
	res, md := algebrizeSQL(t, `
		select o_custkey, sum(o_totalprice) as s, count(*) as n,
		       min(o_totalprice) as mn, avg(o_totalprice) as a
		from orders group by o_custkey`)
	gb, ok := findNode[*algebra.GroupBy](res.Rel)
	if !ok {
		t.Fatal("no GroupBy")
	}
	split, ok := TrySplitGroupBy(md, gb)
	if !ok {
		t.Fatal("split refused")
	}
	plan := algebra.FormatRel(md, split)
	if !strings.Contains(plan, "LGb") {
		t.Errorf("no LocalGroupBy:\n%s", plan)
	}
	// Same output columns (avg recombined by the project).
	want := algebra.OutputCols(gb)
	got := algebra.OutputCols(split)
	if !want.SubsetOf(got) {
		t.Errorf("split output %v missing columns of %v:\n%s", got, want, plan)
	}
	// The global side must combine counts with sum.
	var global *algebra.GroupBy
	algebra.VisitRel(split, func(n algebra.Rel) bool {
		if g, ok := n.(*algebra.GroupBy); ok && g.Kind == algebra.VectorGroupBy {
			global = g
		}
		return true
	})
	if global == nil {
		t.Fatal("no global GroupBy")
	}
	for _, a := range global.Aggs {
		if a.Func == algebra.AggCount || a.Func == algebra.AggCountStar {
			t.Errorf("global combiner for count must be sum, got %v", a.Func)
		}
		if !a.Global {
			t.Errorf("global items must be marked Global")
		}
	}
}

func TestSplitGroupByRefusesDistinct(t *testing.T) {
	res, md := algebrizeSQL(t, `
		select o_custkey, count(distinct o_orderstatus) as n
		from orders group by o_custkey`)
	gb, _ := findNode[*algebra.GroupBy](res.Rel)
	if _, ok := TrySplitGroupBy(md, gb); ok {
		t.Error("DISTINCT aggregates are not splittable")
	}
}

func TestPushLocalGroupByBelowJoin(t *testing.T) {
	// Kim-form inner join with an aggregate over orders; split then
	// push the local half below the join.
	res, md := algebrizeSQL(t, `
		select c_custkey, sum(o_totalprice) as total
		from customer join orders on o_custkey = c_custkey
		group by c_custkey`)
	gb, _ := findNode[*algebra.GroupBy](res.Rel)
	split, ok := TrySplitGroupBy(md, gb)
	if !ok {
		t.Fatal("split refused")
	}
	var lg *algebra.GroupBy
	algebra.VisitRel(split, func(n algebra.Rel) bool {
		if g, ok := n.(*algebra.GroupBy); ok && g.Kind == algebra.LocalGroupBy {
			lg = g
		}
		return true
	})
	if lg == nil {
		t.Fatal("no local GroupBy")
	}
	pushed, ok := TryPushLocalGroupByBelowJoin(md, algebra.TreeCols{}, lg)
	if !ok {
		t.Fatal("local push refused")
	}
	j, ok := pushed.(*algebra.Join)
	if !ok {
		t.Fatalf("pushed = %T", pushed)
	}
	// The local aggregate should now sit on the orders side, grouped by
	// o_custkey (the join column), extending its grouping freely.
	ilg, ok := j.Right.(*algebra.GroupBy)
	if !ok || ilg.Kind != algebra.LocalGroupBy {
		t.Fatalf("join right = %T (%v)", j.Right, algebra.FormatRel(md, pushed))
	}
	if ilg.GroupCols.Empty() {
		t.Error("pushed local GroupBy must group by the join columns")
	}
}

// TestSegmentApplyFigure6 reproduces the Figure 6 shape on the
// decorrelated Q17 inner self-join of lineitem.
func TestSegmentApplyFigure6(t *testing.T) {
	// Build the self-join form directly: lineitem joined with the
	// per-part average of a second lineitem instance.
	res, md := algebrizeSQL(t, `
		select l.l_extendedprice
		from lineitem l,
			(select l2.l_partkey as pk2, 0.2 * avg(l2.l_quantity) as x
			 from lineitem l2 group by l2.l_partkey) as aggresult
		where l.l_partkey = pk2 and l.l_quantity < x`)
	r, err := Normalize(md, res.Rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j, ok := findNode[*algebra.Join](r)
	if !ok || j.Kind != algebra.InnerJoin {
		t.Fatalf("no inner join:\n%s", algebra.FormatRel(md, r))
	}
	sa, ok := TryIntroduceSegmentApply(md, algebra.TreeCols{}, j)
	if !ok {
		t.Fatalf("segment apply refused:\n%s", algebra.FormatRel(md, j))
	}
	seg := sa.(*algebra.SegmentApply)
	if seg.SegmentCols.Len() != 1 {
		t.Errorf("segment cols = %v, want {l_partkey}", seg.SegmentCols)
	}
	plan := algebra.FormatRel(md, seg)
	if !strings.Contains(plan, "SegmentApply") || !strings.Contains(plan, "SegmentRef") {
		t.Errorf("Figure 6 shape missing:\n%s", plan)
	}
	// Inner must contain the join and the aggregate over a SegmentRef.
	ij, ok := findNode[*algebra.Join](seg.Inner)
	if !ok {
		t.Fatalf("no join inside segment:\n%s", plan)
	}
	if _, ok := ij.Left.(*algebra.SegmentRef); !ok {
		t.Errorf("inner join left should be a SegmentRef:\n%s", plan)
	}
}

// TestSegmentApplyJoinPushdownFigure7: push the part join below the
// SegmentApply (predicate uses the segmenting column).
func TestSegmentApplyJoinPushdownFigure7(t *testing.T) {
	res, md := algebrizeSQL(t, `
		select l.l_extendedprice
		from lineitem l,
			(select l2.l_partkey as pk2, 0.2 * avg(l2.l_quantity) as x
			 from lineitem l2 group by l2.l_partkey) as aggresult
		where l.l_partkey = pk2 and l.l_quantity < x`)
	r, err := Normalize(md, res.Rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := findNode[*algebra.Join](r)
	saRel, ok := TryIntroduceSegmentApply(md, algebra.TreeCols{}, j)
	if !ok {
		t.Fatal("segment intro failed")
	}
	sa := saRel.(*algebra.SegmentApply)

	// Join the SegmentApply with a filtered part table on the
	// segmenting column, as in Figure 7.
	partRes, _ := algebrizeSQLShared(t, md, `select p_partkey from part where p_brand = 'Brand#23'`)
	segKey := sa.SegmentCols.Ordered()[0]
	pkey := partRes.OutCols[0]
	top := &algebra.Join{
		Kind: algebra.InnerJoin,
		Left: sa, Right: partRes.Rel,
		On: &algebra.Cmp{Op: algebra.CmpEq,
			L: &algebra.ColRef{Col: segKey}, R: &algebra.ColRef{Col: pkey}},
	}
	pushed, ok := TryPushJoinBelowSegmentApply(md, algebra.TreeCols{}, top)
	if !ok {
		t.Fatalf("join pushdown refused:\n%s", algebra.FormatRel(md, top))
	}
	nsa, ok := pushed.(*algebra.SegmentApply)
	if !ok {
		t.Fatalf("pushed = %T", pushed)
	}
	// Input must now be the join with part; segment cols extended.
	if _, ok := nsa.Input.(*algebra.Join); !ok {
		t.Errorf("SegmentApply input should be the pushed join, got %T", nsa.Input)
	}
	if !nsa.SegmentCols.Contains(pkey) {
		t.Errorf("segment cols must be extended with part's columns: %v", nsa.SegmentCols)
	}
	if !sa.SegmentCols.SubsetOf(nsa.SegmentCols) {
		t.Errorf("original segment cols lost")
	}
}

// TestSegmentApplyRefusesDifferentTables: no instance match, no
// segmenting.
func TestSegmentApplyRefusesDifferentTables(t *testing.T) {
	res, md := algebrizeSQL(t, `
		select c_custkey from customer join orders on c_custkey = o_custkey`)
	j, _ := findNode[*algebra.Join](res.Rel)
	if _, ok := TryIntroduceSegmentApply(md, algebra.TreeCols{}, j); ok {
		t.Error("customer⋈orders must not segment (different expressions)")
	}
}

// TestPushJoinBelowSegmentApplyRefusesNonSegmentPredicate: predicate on
// a non-segmenting column must be refused (it would change segments).
func TestPushJoinBelowSegmentApplyRefusesNonSegmentPredicate(t *testing.T) {
	res, md := algebrizeSQL(t, `
		select l.l_extendedprice
		from lineitem l,
			(select l2.l_partkey as pk2, 0.2 * avg(l2.l_quantity) as x
			 from lineitem l2 group by l2.l_partkey) as aggresult
		where l.l_partkey = pk2 and l.l_quantity < x`)
	r, _ := Normalize(md, res.Rel, Options{})
	j, _ := findNode[*algebra.Join](r)
	saRel, ok := TryIntroduceSegmentApply(md, algebra.TreeCols{}, j)
	if !ok {
		t.Fatal("intro failed")
	}
	sa := saRel.(*algebra.SegmentApply)
	partRes, _ := algebrizeSQLShared(t, md, `select p_partkey from part`)
	// Predicate uses l_quantity — not a segmenting column.
	var lq algebra.ColID
	for _, c := range sa.InputCols {
		if md.Alias(c) == "l_quantity" {
			lq = c
		}
	}
	top := &algebra.Join{Kind: algebra.InnerJoin, Left: sa, Right: partRes.Rel,
		On: &algebra.Cmp{Op: algebra.CmpLt,
			L: &algebra.ColRef{Col: lq}, R: &algebra.ColRef{Col: partRes.OutCols[0]}}}
	if _, ok := TryPushJoinBelowSegmentApply(md, algebra.TreeCols{}, top); ok {
		t.Error("pushdown with non-segment predicate must be refused")
	}
}

func TestSemiJoinBelowGroupBy(t *testing.T) {
	// (G_{o_custkey} orders) ⋉ customer on o_custkey = c_custkey
	res, md := algebrizeSQL(t, `
		select o_custkey, sum(o_totalprice) as total from orders group by o_custkey`)
	gb, _ := findNode[*algebra.GroupBy](res.Rel)
	custRes, _ := algebrizeSQLShared(t, md, `select c_custkey from customer where c_acctbal > 0`)
	oc := gb.GroupCols.Ordered()[0]
	sj := &algebra.Join{Kind: algebra.SemiJoin, Left: gb, Right: custRes.Rel,
		On: &algebra.Cmp{Op: algebra.CmpEq,
			L: &algebra.ColRef{Col: oc}, R: &algebra.ColRef{Col: custRes.OutCols[0]}}}
	pushed, ok := TryPushSemiJoinBelowGroupBy(md, algebra.TreeCols{}, sj)
	if !ok {
		t.Fatal("semijoin push refused")
	}
	ngb, ok := pushed.(*algebra.GroupBy)
	if !ok {
		t.Fatalf("pushed = %T", pushed)
	}
	if _, ok := ngb.Input.(*algebra.Join); !ok {
		t.Errorf("GroupBy input should be the semijoin")
	}

	// Predicate on an aggregate result must refuse.
	var aggCol algebra.ColID
	for _, a := range gb.Aggs {
		aggCol = a.Col
	}
	bad := &algebra.Join{Kind: algebra.SemiJoin, Left: gb, Right: custRes.Rel,
		On: &algebra.Cmp{Op: algebra.CmpGt,
			L: &algebra.ColRef{Col: aggCol}, R: &algebra.Const{Val: mdFloat(0)}}}
	if _, ok := TryPushSemiJoinBelowGroupBy(md, algebra.TreeCols{}, bad); ok {
		t.Error("semijoin on aggregate result must not push below")
	}
}
