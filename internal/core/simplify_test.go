package core

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/sql/types"
	"orthoq/internal/tpch"
)

func TestStrictNullAnalysis(t *testing.T) {
	set := algebra.NewColSet(5)
	ref := &algebra.ColRef{Col: 5}
	other := &algebra.ColRef{Col: 9}
	c := &algebra.Const{Val: types.NewInt(1)}

	cases := []struct {
		name string
		s    algebra.Scalar
		want bool
	}{
		{"bare ref", ref, true},
		{"other ref", other, false},
		{"cmp with member", &algebra.Cmp{Op: algebra.CmpLt, L: c, R: ref}, true},
		{"cmp without member", &algebra.Cmp{Op: algebra.CmpLt, L: c, R: other}, false},
		{"arith chain", &algebra.Cmp{Op: algebra.CmpGt,
			L: &algebra.Arith{Op: types.OpMul, L: ref, R: c}, R: c}, true},
		{"is null is NOT strict", &algebra.IsNull{Arg: ref}, false},
		{"not strict arg", &algebra.Not{Arg: &algebra.Cmp{Op: algebra.CmpEq, L: ref, R: c}}, true},
		{"and one strict", algebra.ConjoinAll(
			&algebra.Cmp{Op: algebra.CmpEq, L: other, R: c},
			&algebra.Cmp{Op: algebra.CmpEq, L: ref, R: c}), true},
		{"or is not strict", &algebra.Or{Args: []algebra.Scalar{
			&algebra.Cmp{Op: algebra.CmpEq, L: ref, R: c},
			&algebra.Cmp{Op: algebra.CmpEq, L: other, R: c}}}, false},
		{"case is not strict", &algebra.Case{Whens: []algebra.When{{
			Cond: &algebra.Cmp{Op: algebra.CmpEq, L: ref, R: c}, Then: c}}}, false},
	}
	for _, tc := range cases {
		if got := StrictNull(tc.s, set); got != tc.want {
			t.Errorf("%s: StrictNull = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestOJSimplifyCountPredicates: derivation through GroupBy must
// distinguish predicates that reject the empty-group value from those
// that keep it.
func TestOJSimplifyCountPredicates(t *testing.T) {
	build := func(havingOp string) (string, *algebra.Metadata) {
		res, md := algebrizeSQL(t, `
			select c_custkey from customer
			where (select count(*) from orders where o_custkey = c_custkey) `+havingOp)
		r, err := Normalize(md, res.Rel, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return algebra.FormatRel(md, r), md
	}
	// count > 0 rejects unmatched groups: LOJ simplifies.
	plan, _ := build("> 0")
	if strings.Contains(plan, "LeftOuterJoin") {
		t.Errorf("count > 0 should simplify the outerjoin:\n%s", plan)
	}
	// count = 0 KEEPS unmatched groups: LOJ must survive.
	plan, _ = build("= 0")
	if !strings.Contains(plan, "LeftOuterJoin") {
		t.Errorf("count = 0 must preserve the outerjoin:\n%s", plan)
	}
	// count >= 0 keeps everything: LOJ must survive.
	plan, _ = build(">= 0")
	if !strings.Contains(plan, "LeftOuterJoin") {
		t.Errorf("count >= 0 must preserve the outerjoin:\n%s", plan)
	}
}

// TestLOJRightFilterStaysAbove: a right-side-only filter above a LOJ
// removes padded rows and must not be pushed into the right input.
func TestLOJRightFilterStaysAbove(t *testing.T) {
	res, md := algebrizeSQL(t, `
		select c_custkey, o_orderkey
		from customer left outer join orders on o_custkey = c_custkey
		where o_totalprice > 100`)
	r, err := Normalize(md, res.Rel, Options{KeepOuterJoins: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := algebra.FormatRel(md, r)
	// With simplification disabled, the filter must sit ABOVE the LOJ.
	lojIdx := strings.Index(plan, "LeftOuterJoin")
	selIdx := strings.Index(plan, "Select [orders.o_totalprice > 100]")
	if selIdx == -1 || lojIdx == -1 {
		t.Fatalf("unexpected plan:\n%s", plan)
	}
	if selIdx > lojIdx {
		t.Errorf("right-side filter pushed below a preserved LOJ:\n%s", plan)
	}

	// With simplification enabled the filter is null-rejecting, the LOJ
	// becomes inner, and only then may the filter descend.
	res2, md2 := algebrizeSQL(t, `
		select c_custkey, o_orderkey
		from customer left outer join orders on o_custkey = c_custkey
		where o_totalprice > 100`)
	r2, err := Normalize(md2, res2.Rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan2 := algebra.FormatRel(md2, r2)
	if strings.Contains(plan2, "LeftOuterJoin") {
		t.Errorf("null-rejecting filter should simplify the LOJ:\n%s", plan2)
	}
}

// TestLOJOnRightConjunctPushes: ON conjuncts touching only the right
// side may push into the right input of a LOJ (they only pre-filter
// matches), unlike WHERE conjuncts.
func TestLOJOnRightConjunctPushes(t *testing.T) {
	res, md := algebrizeSQL(t, `
		select c_custkey, o_orderkey
		from customer left outer join orders
			on o_custkey = c_custkey and o_totalprice > 100`)
	r, err := Normalize(md, res.Rel, Options{KeepOuterJoins: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := algebra.FormatRel(md, r)
	lojIdx := strings.Index(plan, "LeftOuterJoin")
	selIdx := strings.Index(plan, "Select [orders.o_totalprice > 100]")
	if selIdx == -1 || lojIdx == -1 {
		t.Fatalf("unexpected plan:\n%s", plan)
	}
	if selIdx < lojIdx {
		t.Errorf("ON right-only conjunct should push below the LOJ:\n%s", plan)
	}
}

func TestCloneWithFreshColsIsDisjointAndEquivalent(t *testing.T) {
	res, md := algebrizeSQL(t, `
		select o_custkey, sum(o_totalprice) as s from orders
		where o_orderstatus = 'O' group by o_custkey`)
	clone, remap := cloneWithFreshCols(md, res.Rel)
	orig := algebra.OutputCols(res.Rel)
	cl := algebra.OutputCols(clone)
	if orig.Intersects(cl) {
		t.Errorf("clone shares column ids: %v ∩ %v", orig, cl)
	}
	// Every original output maps to a clone output.
	orig.ForEach(func(c algebra.ColID) {
		nc, ok := remap[c]
		if !ok {
			t.Errorf("column %d not remapped", c)
			return
		}
		if !cl.Contains(nc) {
			t.Errorf("remapped column %d not produced by clone", nc)
		}
		if md.Alias(c) != md.Alias(nc) {
			t.Errorf("alias changed: %s -> %s", md.Alias(c), md.Alias(nc))
		}
	})
	// Structure matches modulo ids: matchRels must accept the pair.
	if _, ok := matchTrees(res.Rel, clone); !ok {
		t.Error("clone does not structurally match the original")
	}

	// A clone of an ordered Get keeps its order, renamed.
	get := &algebra.Get{Table: "orders", Cols: []algebra.ColID{md.AddColumn("k", types.Int)}}
	get.Order = []algebra.Ordering{{Col: get.Cols[0], Desc: true}}
	cg, remap := cloneWithFreshCols(md, get)
	if o := cg.(*algebra.Get).Order; len(o) != 1 || o[0] != (algebra.Ordering{Col: remap[get.Cols[0]], Desc: true}) {
		t.Errorf("clone of a Get ordered by %v has order %v", get.Order, o)
	}

	// On every subtree of the normalized TPC-H queries that matchRels
	// reads, the bijection it finds from a clone back to the original
	// is exactly the inverse of the clone's own map.
	checked := 0
	for name, sql := range tpch.Queries {
		res, md := algebrizeSQL(t, sql)
		r, err := Normalize(md, res.Rel, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		algebra.VisitRel(r, func(sub algebra.Rel) bool {
			if slices.ContainsFunc(preorder(nil, sub), func(n algebra.Rel) bool { return !inMatchDomain(n) }) {
				return true
			}
			clone, remap := cloneWithFreshCols(md, sub)
			back, ok := matchTrees(sub, clone)
			if !ok {
				t.Errorf("%s: clone of\n%sdoes not match it", name, algebra.FormatRel(md, sub))
				return true
			}
			inverse := make(map[algebra.ColID]algebra.ColID, len(remap))
			for from, to := range remap {
				inverse[to] = from
			}
			if !maps.Equal(back, inverse) {
				t.Errorf("%s: matchRels found %v, the clone's inverse map is %v", name, back, inverse)
			}
			checked++
			return true
		})
	}
	if checked < len(tpch.Queries) {
		t.Errorf("checked %d subtrees of %d queries", checked, len(tpch.Queries))
	}
}

func TestMatchRelsRejectsDifferences(t *testing.T) {
	resA, md := algebrizeSQL(t, `select o_custkey from orders where o_totalprice > 10`)
	resB, _ := algebrizeSQLShared(t, md, `select o_custkey from orders where o_totalprice > 20`)
	if _, ok := matchTrees(resA.Rel, resB.Rel); ok {
		t.Error("different constants must not match")
	}
	// Int and Float constants that print alike divide differently.
	resI, _ := algebrizeSQLShared(t, md, `select o_custkey, o_shippriority/2 as v from orders`)
	resF, _ := algebrizeSQLShared(t, md, `select o_custkey, o_shippriority/2.0 as v from orders`)
	if _, ok := matchTrees(resI.Rel, resF.Rel); ok {
		t.Error("an Int and a Float constant must not match")
	}
	resC, _ := algebrizeSQLShared(t, md, `select c_custkey from customer`)
	if _, ok := matchTrees(resA.Rel, resC.Rel); ok {
		t.Error("different tables must not match")
	}

	// The same filter on one outer column matches; on two, it does not.
	resA2, _ := algebrizeSQLShared(t, md, `select o_custkey from orders where o_totalprice > 10`)
	outer1, outer2 := md.AddColumn("x", types.Int), md.AddColumn("y", types.Int)
	correlated := func(r algebra.Rel, outer algebra.ColID) algebra.Rel {
		c := algebra.OutputCols(r).Ordered()[0]
		return &algebra.Select{Input: r, Filter: &algebra.Cmp{Op: algebra.CmpEq,
			L: &algebra.ColRef{Col: c}, R: &algebra.ColRef{Col: outer}}}
	}
	if _, ok := matchTrees(correlated(resA.Rel, outer1), correlated(resA2.Rel, outer1)); !ok {
		t.Error("one outer reference on both sides must match")
	}
	if _, ok := matchTrees(correlated(resA.Rel, outer1), correlated(resA2.Rel, outer2)); ok {
		t.Error("different outer references must not match")
	}

	// Aggregates differing in function or DISTINCT do not match.
	agg := func(item string) algebra.Rel {
		res, _ := algebrizeSQLShared(t, md, `select o_custkey, `+item+` as a from orders group by o_custkey`)
		return res.Rel
	}
	sum := agg(`sum(o_totalprice)`)
	if _, ok := matchTrees(sum, agg(`sum(o_totalprice)`)); !ok {
		t.Error("one aggregate on both sides must match")
	}
	for _, other := range []string{`max(o_totalprice)`, `sum(distinct o_totalprice)`} {
		if _, ok := matchTrees(sum, agg(other)); ok {
			t.Errorf("sum(o_totalprice) must not match %s", other)
		}
	}

	// A subquery in a filter never matches, not even its own clone.
	const subSQL = `select o_custkey from orders
		where o_totalprice > (select avg(o_totalprice) from orders)`
	resS, _ := algebrizeSQLShared(t, md, subSQL)
	resS2, _ := algebrizeSQLShared(t, md, subSQL)
	clone, _ := cloneWithFreshCols(md, resS.Rel)
	if _, ok := matchTrees(resS.Rel, resS2.Rel); ok {
		t.Error("a filter with a subquery must not match")
	}
	if _, ok := matchTrees(resS.Rel, clone); ok {
		t.Error("a filter with a subquery must not match its clone")
	}
}

func TestAtMostOneRowAnalysis(t *testing.T) {
	res, md := algebrizeSQL(t, `select c_name from customer where c_custkey = 5`)
	if !AtMostOneRow(res.Rel) {
		t.Error("key-equality select must be at-most-one")
	}
	res2, _ := algebrizeSQL(t, `select c_name from customer where c_nationkey = 5`)
	if AtMostOneRow(res2.Rel) {
		t.Error("non-key select is not at-most-one")
	}
	res3, _ := algebrizeSQL(t, `select count(*) as n from customer`)
	if !ExactlyOneRow(res3.Rel) {
		t.Error("scalar aggregate is exactly-one")
	}
	_ = md
}

// TestSimplifyIdempotent: Simplify must reach a fixpoint (running it
// twice changes nothing).
func TestSimplifyIdempotent(t *testing.T) {
	for _, sql := range []string{
		paperQ1,
		`select c_custkey from customer left outer join orders on o_custkey = c_custkey
		 where c_acctbal > 0`,
		`select o_custkey, count(*) as n from orders group by o_custkey having count(*) > 1`,
	} {
		res, md := algebrizeSQL(t, sql)
		r, err := Normalize(md, res.Rel, Options{})
		if err != nil {
			t.Fatal(err)
		}
		again := Simplify(md, r, Options{})
		if algebra.FormatRel(md, again) != algebra.FormatRel(md, r) {
			t.Errorf("Simplify not idempotent for %q:\nfirst:\n%s\nsecond:\n%s",
				sql, algebra.FormatRel(md, r), algebra.FormatRel(md, again))
		}
	}
}

func TestConstantFoldingAndEmptyDetection(t *testing.T) {
	check := func(sql, wantOp, note string) {
		t.Helper()
		res, md := algebrizeSQL(t, sql)
		r, err := Normalize(md, res.Rel, Options{})
		if err != nil {
			t.Fatal(err)
		}
		plan := algebra.FormatRel(md, r)
		if !strings.Contains(plan, wantOp) {
			t.Errorf("%s: plan should contain %q:\n%s", note, wantOp, plan)
		}
	}
	// A statically false filter empties the whole query.
	check(`select c_custkey from customer where 1 = 2`,
		"Values (0 rows)", "false filter")
	// ... and the emptiness propagates through joins.
	check(`select c_custkey from customer, orders
		   where o_custkey = c_custkey and 1 > 2`,
		"Values (0 rows)", "false conjunct over join")
	// NULL predicates are as good as FALSE.
	check(`select c_custkey from customer where null`,
		"Values (0 rows)", "null filter")
	// Constant arithmetic folds.
	res, md := algebrizeSQL(t, `select c_custkey from customer where c_acctbal > 2 * 50`)
	r, err := Normalize(md, res.Rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := algebra.FormatRel(md, r)
	if !strings.Contains(plan, "> 100") {
		t.Errorf("2*50 not folded:\n%s", plan)
	}
	// Scalar aggregation over a statically empty input still produces
	// its agg(∅) row (§1.1) — must NOT collapse to empty.
	check(`select count(*) as n from orders where 1 = 0`,
		"SGb", "scalar agg over empty")
	// Antisemijoin with an empty right side keeps every left row.
	res2, md2 := algebrizeSQL(t, `
		select c_custkey from customer
		where not exists (select o_orderkey from orders where 1 = 0)`)
	r2, err := Normalize(md2, res2.Rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan2 := algebra.FormatRel(md2, r2)
	if strings.Contains(plan2, "AntiSemiJoin") || strings.Contains(plan2, "Values (0 rows)") {
		t.Errorf("NOT EXISTS over empty should reduce to the left input:\n%s", plan2)
	}
}

func TestFoldEmptyLOJPads(t *testing.T) {
	res, md := algebrizeSQL(t, `
		select c_custkey,
			(select sum(o_totalprice) from orders where o_custkey = c_custkey and 1 = 0) as v
		from customer`)
	r, err := Normalize(md, res.Rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := algebra.FormatRel(md, r)
	if strings.Contains(plan, "Join") {
		t.Errorf("empty inner should eliminate the join entirely:\n%s", plan)
	}
	// And execution gives NULL totals for everyone.
	st := randomStore(t, 3)
	rows := execPlan(t, st, md, r, res.OutCols)
	for _, row := range rows {
		if !strings.HasSuffix(row, "|NULL") {
			t.Errorf("row %q should have NULL total", row)
		}
	}
}
